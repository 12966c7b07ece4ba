//! Adversarial page family: pages whose *shape*, not their form, is
//! the hard part — the chrome a sloppy or hostile site can wrap around
//! a query form.
//!
//! Each [`Shape`] grows one structural dimension with its `size`
//! argument while the query form stays fixed:
//!
//! - **nested tables** — layout tables nested `size` deep, a
//!   navigation column beside each level's content cell;
//! - **nested divs** — `size` nested `<div>` blocks, one line each;
//! - **wide table** — a `size`-row listing with colspan and rowspan
//!   cells;
//! - **long text** — one `size`-word text run in a table cell;
//! - **deep inline** — `size` nested inline elements (`<b>`, `<i>`,
//!   `<span>`, `<font>`), a word at each level.
//!
//! Pages are pure functions of `(shape, size)`: no randomness, so a
//! size sweep is reproducible and its work counts (layout node visits)
//! can be pinned exactly. The layout scaling tests and the layout
//! golden digests run over this family.

/// The form every adversarial page carries at its innermost point.
pub const FORM: &str = "<form>Author <input type=text name=author> \
                        Title <input type=text name=title> \
                        <input type=submit value=Search></form>";

const WORDS: [&str; 12] = [
    "catalog", "search", "arrivals", "members", "help", "contact", "shipping", "returns", "gift",
    "sale", "featured", "sitemap",
];

/// The `i`-th filler word (cycles through a fixed list).
fn word(i: usize) -> &'static str {
    WORDS[i % WORDS.len()]
}

/// One structural dimension an adversarial page grows along.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Layout tables nested `size` deep.
    NestedTables,
    /// `size` nested `<div>` blocks.
    NestedDivs,
    /// A listing table of `size` rows with colspan/rowspan cells.
    WideTable,
    /// A single text run of `size` words.
    LongText,
    /// `size` nested inline elements.
    DeepInline,
}

impl Shape {
    /// Every shape, in a fixed order.
    pub const ALL: [Shape; 5] = [
        Shape::NestedTables,
        Shape::NestedDivs,
        Shape::WideTable,
        Shape::LongText,
        Shape::DeepInline,
    ];

    /// Stable name, used in page names (`"nested-tables/8"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Shape::NestedTables => "nested-tables",
            Shape::NestedDivs => "nested-divs",
            Shape::WideTable => "wide-table",
            Shape::LongText => "long-text",
            Shape::DeepInline => "deep-inline",
        }
    }

    /// The page of this shape at `size`.
    pub fn page(self, size: usize) -> String {
        match self {
            Shape::NestedTables => nested_tables(size),
            Shape::NestedDivs => nested_divs(size),
            Shape::WideTable => wide_table(size),
            Shape::LongText => long_text(size),
            Shape::DeepInline => deep_inline(size),
        }
    }
}

/// Layout tables nested `depth` deep. Every level is a two-column row:
/// a navigation cell of four links and a content cell holding a line of
/// text and the next level; the innermost content cell holds [`FORM`].
pub fn nested_tables(depth: usize) -> String {
    let mut out = String::new();
    for level in 0..depth {
        out.push_str("<table><tr><td valign=top>");
        for k in 0..4 {
            out.push_str("<a href=\"#\">");
            out.push_str(word(level + k));
            out.push_str("</a><br>");
        }
        out.push_str("</td><td>");
        out.push_str(word(level));
        out.push(' ');
        out.push_str(word(level + 5));
        out.push_str("<br>");
    }
    out.push_str(FORM);
    for _ in 0..depth {
        out.push_str("</td></tr></table>\n");
    }
    out
}

/// `depth` nested `<div>` blocks, each opening with one word; the
/// innermost holds [`FORM`].
pub fn nested_divs(depth: usize) -> String {
    let mut out = String::new();
    for level in 0..depth {
        out.push_str("<div>");
        out.push_str(word(level));
    }
    out.push_str(FORM);
    for _ in 0..depth {
        out.push_str("</div>");
    }
    out.push('\n');
    out
}

/// A four-column listing table of `rows` rows followed by [`FORM`].
/// Every fifth row merges its two middle cells (`colspan=2`); every
/// seventh row's first cell spans two rows (`rowspan=2`), so the next
/// row starts one column over.
pub fn wide_table(rows: usize) -> String {
    let mut out = String::from("<table>\n");
    let mut covered = false; // this row's first column taken by a rowspan
    for r in 0..rows {
        out.push_str("<tr>");
        if !covered {
            if r % 7 == 3 && r + 1 < rows {
                out.push_str(&format!("<td rowspan=2>{r}</td>"));
            } else {
                out.push_str(&format!("<td>{r}</td>"));
            }
        }
        covered = !covered && r % 7 == 3 && r + 1 < rows;
        if r % 5 == 2 {
            out.push_str(&format!("<td colspan=2>{} {}</td>", word(r), word(r + 1)));
        } else {
            out.push_str(&format!("<td>{}</td><td>{}</td>", word(r), word(r + 2)));
        }
        out.push_str(&format!("<td><input type=checkbox name=r{r}></td></tr>\n"));
    }
    out.push_str("</table>\n");
    out.push_str(FORM);
    out
}

/// One text run of `words` words, unbroken by markup, in the first cell
/// of a two-column table whose second cell holds [`FORM`].
pub fn long_text(words: usize) -> String {
    let mut out = String::from("<table><tr><td>");
    for i in 0..words {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(word(i));
    }
    out.push_str("</td><td>");
    out.push_str(FORM);
    out.push_str("</td></tr></table>\n");
    out
}

/// `depth` nested inline elements cycling through `<b>`, `<i>`,
/// `<span>` and `<font>`, a word at each level; [`FORM`] follows the
/// innermost word.
pub fn deep_inline(depth: usize) -> String {
    const TAGS: [&str; 4] = ["b", "i", "span", "font"];
    let mut out = String::new();
    for level in 0..depth {
        out.push('<');
        out.push_str(TAGS[level % TAGS.len()]);
        out.push('>');
        out.push_str(word(level));
        out.push(' ');
    }
    out.push_str(FORM);
    for level in (0..depth).rev() {
        out.push_str("</");
        out.push_str(TAGS[level % TAGS.len()]);
        out.push('>');
    }
    out.push('\n');
    out
}

/// `open` repeated `depth` times with nothing between, then [`FORM`]
/// and no end tags: the smallest page of a given tree depth
/// (`deep_tags("<div>", 20_000)` is ~100 KB).
pub fn deep_tags(open: &str, depth: usize) -> String {
    let mut out = open.repeat(depth);
    out.push_str(FORM);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_carries_the_form_once() {
        for shape in Shape::ALL {
            for size in [0, 1, 5] {
                let page = shape.page(size);
                assert_eq!(page.matches("<form>").count(), 1, "{shape:?}/{size}");
            }
        }
    }

    #[test]
    fn sizes_grow_the_page() {
        for shape in Shape::ALL {
            assert!(
                shape.page(20).len() > shape.page(10).len(),
                "{shape:?} must grow with its size"
            );
        }
    }

    #[test]
    fn nested_tables_nest() {
        let page = nested_tables(3);
        assert_eq!(page.matches("<table>").count(), 3);
        assert_eq!(page.matches("</table>").count(), 3);
    }

    #[test]
    fn wide_table_spans_rows_and_columns() {
        let page = wide_table(20);
        assert_eq!(page.matches("<tr>").count(), 20);
        assert!(page.contains("colspan=2"));
        assert!(page.contains("rowspan=2"));
    }
}
