//! Golden layout digests: the geometry the layout engine produces for
//! the survey corpus and the adversarial page family, pinned per page.
//!
//! Each line of `tests/golden/layout_digests.txt` is one page: its
//! name, how many boxes, fragments and line boxes it has, and an FNV-1a
//! digest over every box, every fragment's text and bbox, and every
//! fragment's line id. Line ids are rank-normalized per page (the
//! smallest id becomes 0, the next 1, …): downstream code only sorts
//! and compares them, so any order-preserving renumbering is the same
//! layout.
//!
//! To regenerate after an intentional geometry change:
//!
//! ```text
//! METAFORM_BLESS=1 cargo test --test layout_golden
//! ```

use metaform_datasets::adversarial::Shape;
use metaform_datasets::survey_corpus;
use metaform_html::NodeId;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/layout_digests.txt")
}

/// Adversarial sizes in the golden file: small enough for a
/// quadratic-time engine to bless them in a debug build, large enough
/// to reach colspan/rowspan, nested measurement and wrapping at the
/// measuring width (20 000 words overflow a million-pixel line).
const ADVERSARIAL_SIZES: [(Shape, &[usize]); 5] = [
    (Shape::NestedTables, &[1, 2, 3, 4, 5, 6, 7]),
    (Shape::NestedDivs, &[1, 16, 200]),
    (Shape::WideTable, &[10, 100, 300]),
    (Shape::LongText, &[10, 1000, 20_000]),
    (Shape::DeepInline, &[1, 16, 200]),
];

fn pages() -> Vec<(String, String)> {
    let mut pages = survey_corpus();
    for (shape, sizes) in ADVERSARIAL_SIZES {
        for &size in sizes {
            pages.push((format!("{}/{size}", shape.as_str()), shape.page(size)));
        }
    }
    pages
}

/// FNV-1a, 64-bit: stable across hosts and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One golden line: `name boxes=… fragments=… lines=… digest=…`.
fn digest_line(name: &str, html: &str) -> String {
    let doc = metaform_html::parse(html);
    let lay = metaform_layout::layout(&doc);
    let ids = (0..doc.len()).map(|i| NodeId(i as u32));
    let mut rank: BTreeMap<u32, u32> = BTreeMap::new();
    for id in ids.clone() {
        for f in lay.fragments(id) {
            rank.insert(f.line, 0);
        }
    }
    for (r, slot) in rank.values_mut().enumerate() {
        *slot = r as u32;
    }
    let (mut boxes, mut fragments) = (0, 0);
    let mut canon = String::new();
    for id in ids {
        if let Some(b) = lay.bbox(id) {
            boxes += 1;
            let _ = writeln!(canon, "b{} {:?}", id.0, b);
        }
        for f in lay.fragments(id) {
            fragments += 1;
            let _ = writeln!(canon, "f{} {} {:?} {}", id.0, rank[&f.line], f.bbox, f.text);
        }
    }
    format!(
        "{name} boxes={boxes} fragments={fragments} lines={} digest={:016x}",
        rank.len(),
        fnv1a(canon.as_bytes())
    )
}

fn render() -> String {
    let mut out = String::new();
    for (name, html) in pages() {
        out.push_str(&digest_line(&name, &html));
        out.push('\n');
    }
    out
}

#[test]
fn layout_digests_match_the_golden_file() {
    let rendered = render();
    let path = golden_path();
    if std::env::var_os("METAFORM_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        println!("blessed {} ({} bytes)", path.display(), rendered.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n\
             (first run? bless it: METAFORM_BLESS=1 cargo test --test layout_golden)",
            path.display()
        )
    });
    let drifted: Vec<String> = golden
        .lines()
        .zip(rendered.lines())
        .filter(|(g, r)| g != r)
        .map(|(g, r)| format!("-{g}\n+{r}"))
        .collect();
    assert!(
        drifted.is_empty() && golden.lines().count() == rendered.lines().count(),
        "layout drifted from the golden digests on {} page(s)\n\
         to accept the change: METAFORM_BLESS=1 cargo test --test layout_golden\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn digests_see_geometry_text_and_line_order() {
    let base = digest_line("p", "<table><tr><td>a b</td><td>c</td></tr></table>");
    // A moved box, changed text and a different line split all change
    // the digest; the page name and counts alone would not.
    for other in [
        "<table><tr><td>a b</td><td>cc</td></tr></table>",
        "<table><tr><td>a b</td><td>d</td></tr></table>",
        "<table><tr><td>a<br>b</td><td>c</td></tr></table>",
    ] {
        assert_ne!(digest_line("p", other), base, "{other}");
    }
    assert_eq!(
        digest_line("p", "<table><tr><td>a b</td><td>c</td></tr></table>"),
        base
    );
}
