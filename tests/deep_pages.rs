//! Pages nested far deeper than any real form must still extract, on a
//! thread with a small stack: a stack overflow aborts the whole process
//! (no `catch_unwind` boundary can contain it), so one such page would
//! take every other page of a batch, or a whole `metaformd`, with it.
//!
//! The HTML parser caps tree depth at `MAX_TREE_DEPTH`, as browsers
//! do, so every later stage walks a tree of bounded depth.

use metaform_datasets::adversarial::{deep_tags, Shape, FORM};
use metaform_extractor::{Extraction, FormExtractor};

/// The smallest stack a worker thread is commonly given.
const SMALL_STACK: usize = 2 << 20;

const DEPTH: usize = 100_000;

/// The three deep-nesting shapes: `(open, close)` tags of one level.
const LEVELS: [(&str, &str); 3] = [
    ("<div>", "</div>"),
    ("<b>", "</b>"),
    ("<table><tr><td>", "</td></tr></table>"),
];

fn extract_on_small_stack(html: String) -> Extraction {
    std::thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(move || FormExtractor::new().extract(&html))
        .expect("spawn")
        .join()
        .expect("extraction must not panic")
}

fn assert_form_found(extraction: &Extraction, page: &str) {
    let report = extraction.report.to_string();
    assert!(
        report.contains("Author") && report.contains("Title"),
        "{page}: the form's two conditions are lost:\n{report}"
    );
}

#[test]
fn a_form_after_deep_chrome_extracts_in_full() {
    for (open, close) in LEVELS {
        let page = format!("{}{}{FORM}", open.repeat(DEPTH), close.repeat(DEPTH));
        assert_form_found(&extract_on_small_stack(page), open);
    }
}

#[test]
fn a_form_inside_deep_nesting_does_not_abort() {
    // Past the depth cap the form's content is re-parented beside the
    // form element, as a browser would build it; what matters here is
    // that the page finishes.
    for (open, _) in LEVELS {
        extract_on_small_stack(deep_tags(open, DEPTH));
    }
}

#[test]
fn deep_adversarial_pages_do_not_abort() {
    for shape in [Shape::NestedDivs, Shape::DeepInline, Shape::NestedTables] {
        extract_on_small_stack(shape.page(DEPTH / 10));
    }
}

#[test]
fn forms_within_the_depth_cap_keep_their_structure() {
    for (open, close) in LEVELS {
        let depth = 100;
        let page = format!("{}{FORM}{}", open.repeat(depth), close.repeat(depth));
        assert_form_found(&extract_on_small_stack(page), open);
    }
}
