//! Tree builder: token stream → [`Document`].
//!
//! Implements the subset of HTML tree construction that real 2004-era
//! query forms exercise: void elements, implied end tags (`<option>`,
//! `<li>`, `<p>`, table rows/cells), and recovery from mismatched or
//! stray end tags. `script`/`style` subtrees are dropped — they carry no
//! visual tokens.

use crate::dom::{Document, NodeId};
use crate::lexer::{lex, HtmlToken};

/// Elements that never have content or an end tag.
fn is_void(tag: &str) -> bool {
    matches!(
        tag,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

/// Tags whose start implicitly closes certain open elements.
/// Returns the set of tags that must be closed before opening `tag`.
fn implied_closes(tag: &str) -> &'static [&'static str] {
    match tag {
        "option" => &["option"],
        "optgroup" => &["option", "optgroup"],
        "li" => &["li"],
        "dt" | "dd" => &["dt", "dd"],
        "p" => &["p"],
        "tr" => &["td", "th", "tr"],
        "td" | "th" => &["td", "th"],
        "thead" | "tbody" | "tfoot" => &["td", "th", "tr", "thead", "tbody", "tfoot"],
        "table" => &["p"],
        _ => &[],
    }
}

/// Elements acting as scope barriers: an implied or recovery close never
/// pops past one of these.
fn is_scope_barrier(tag: &str) -> bool {
    matches!(
        tag,
        "table" | "td" | "th" | "form" | "select" | "html" | "body"
    )
}

/// Deepest a node may sit in the tree (the root is depth 0). Past it,
/// new nodes attach to the open element at depth `MAX_TREE_DEPTH - 1`,
/// as siblings, while end tags still match the elements opened — the
/// cap Chromium's parser applies (`kMaximumHTMLParserDOMTreeDepth`).
/// It bounds the depth every later stage walks, so a page of 100 000
/// nested tags costs no more stack than one of 512.
pub const MAX_TREE_DEPTH: usize = 512;

/// Parses HTML source into a DOM. Lenient: never fails.
///
/// ```
/// let doc = metaform_html::parse("<form><option>One<option>Two</form>");
/// assert_eq!(doc.elements_by_tag(doc.root(), "option").len(), 2);
/// assert_eq!(doc.text_content(doc.root()), "OneTwo");
/// ```
pub fn parse(input: &str) -> Document {
    let mut doc = Document::new();
    // Stack of open elements as (node, tag).
    let mut stack: Vec<(NodeId, String)> = vec![(doc.root(), String::new())];
    let mut skip_depth = 0usize; // >0 while inside script/style

    for token in lex(input) {
        match token {
            HtmlToken::Doctype(_) | HtmlToken::Comment(_) => {}
            HtmlToken::Text(text) => {
                if skip_depth == 0 && !text.is_empty() {
                    doc.create_text(insertion_parent(&stack), text);
                }
            }
            HtmlToken::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                if skip_depth > 0 {
                    if matches!(name.as_str(), "script" | "style") && !self_closing {
                        skip_depth += 1;
                    }
                    continue;
                }
                if matches!(name.as_str(), "script" | "style") {
                    if !self_closing {
                        skip_depth = 1;
                    }
                    continue;
                }
                close_implied(&mut stack, &name);
                let node = doc.create_element(insertion_parent(&stack), name.clone(), attrs);
                if !is_void(&name) && !self_closing {
                    stack.push((node, name));
                }
            }
            HtmlToken::EndTag { name } => {
                if skip_depth > 0 {
                    if matches!(name.as_str(), "script" | "style") {
                        skip_depth -= 1;
                    }
                    continue;
                }
                close_matching(&mut stack, &name);
            }
        }
    }
    doc
}

/// Where a new node goes: the innermost open element, or its ancestor
/// at depth `MAX_TREE_DEPTH - 1` when the open elements nest deeper.
fn insertion_parent(stack: &[(NodeId, String)]) -> NodeId {
    stack[stack.len().min(MAX_TREE_DEPTH) - 1].0
}

/// Pops elements whose end tag is implied by the arrival of `tag`.
fn close_implied(stack: &mut Vec<(NodeId, String)>, tag: &str) {
    let closes = implied_closes(tag);
    if closes.is_empty() {
        return;
    }
    while stack.len() > 1 {
        let top = stack.last().expect("len > 1").1.as_str();
        if closes.contains(&top) {
            stack.pop();
        } else {
            break;
        }
    }
}

/// Handles an explicit end tag: pops to the matching open element if one
/// is in scope; ignores the end tag otherwise (browser-style recovery).
fn close_matching(stack: &mut Vec<(NodeId, String)>, tag: &str) {
    // Find the matching element, not crossing scope barriers other than
    // the element itself.
    let mut match_at = None;
    for (i, (_, open)) in stack.iter().enumerate().skip(1).rev() {
        if open == tag {
            match_at = Some(i);
            break;
        }
        if is_scope_barrier(open) {
            break;
        }
    }
    if let Some(i) = match_at {
        stack.truncate(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags_under(doc: &Document, root: NodeId) -> Vec<String> {
        doc.children(root)
            .iter()
            .filter_map(|&c| doc.tag(c).map(str::to_string))
            .collect()
    }

    #[test]
    fn simple_nesting() {
        let doc = parse("<form><b>Author</b><input type=text></form>");
        let form = doc.elements_by_tag(doc.root(), "form")[0];
        assert_eq!(tags_under(&doc, form), vec!["b", "input"]);
        let b = doc.children(form)[0];
        assert_eq!(doc.text_content(b), "Author");
    }

    #[test]
    fn void_elements_do_not_nest() {
        let doc = parse("<p>a<br>b<img src=x>c</p>");
        let p = doc.elements_by_tag(doc.root(), "p")[0];
        // a, br, b, img, c are all siblings under <p>.
        assert_eq!(doc.children(p).len(), 5);
        assert_eq!(doc.text_content(p), "abc");
    }

    #[test]
    fn options_implicitly_closed() {
        let doc = parse("<select><option>One<option>Two<option>Three</select>");
        let select = doc.elements_by_tag(doc.root(), "select")[0];
        let opts = doc.elements_by_tag(select, "option");
        assert_eq!(opts.len(), 3);
        assert_eq!(doc.text_content(opts[0]), "One");
        assert_eq!(doc.text_content(opts[2]), "Three");
        // Options are flat siblings, not nested.
        assert_eq!(doc.children(select).len(), 3);
    }

    #[test]
    fn table_cells_implicitly_closed() {
        let doc = parse("<table><tr><td>A<td>B<tr><td>C</table>");
        let table = doc.elements_by_tag(doc.root(), "table")[0];
        let rows = doc.elements_by_tag(table, "tr");
        assert_eq!(rows.len(), 2);
        assert_eq!(doc.elements_by_tag(rows[0], "td").len(), 2);
        assert_eq!(doc.elements_by_tag(rows[1], "td").len(), 1);
        assert_eq!(doc.text_content(rows[0]), "AB");
    }

    #[test]
    fn tbody_closes_rows() {
        let doc = parse("<table><tbody><tr><td>A</td></tr><tbody><tr><td>B</table>");
        let bodies = doc.elements_by_tag(doc.root(), "tbody");
        assert_eq!(bodies.len(), 2);
    }

    #[test]
    fn paragraph_closes_paragraph() {
        let doc = parse("<p>first<p>second");
        let ps = doc.elements_by_tag(doc.root(), "p");
        assert_eq!(ps.len(), 2);
        assert_eq!(doc.text_content(ps[0]), "first");
        assert_eq!(doc.parent(ps[1]), Some(doc.root()), "not nested");
    }

    #[test]
    fn list_items_implicitly_closed() {
        let doc = parse("<ul><li>a<li>b</ul>");
        let ul = doc.elements_by_tag(doc.root(), "ul")[0];
        assert_eq!(doc.elements_by_tag(ul, "li").len(), 2);
        assert_eq!(doc.children(ul).len(), 2);
    }

    #[test]
    fn stray_end_tag_ignored() {
        let doc = parse("<form></table><input></form>");
        let form = doc.elements_by_tag(doc.root(), "form")[0];
        assert_eq!(doc.elements_by_tag(form, "input").len(), 1);
    }

    #[test]
    fn end_tag_does_not_cross_table_barrier() {
        // The </form> inside the table cell must not close the outer form.
        let doc = parse("<div><table><tr><td></div><input name=q></table>");
        let td = doc.elements_by_tag(doc.root(), "td")[0];
        assert_eq!(doc.elements_by_tag(td, "input").len(), 1);
    }

    #[test]
    fn script_and_style_subtrees_dropped() {
        let doc = parse("<script>var x = '<p>';</script><style>p{}</style><b>keep</b>");
        assert!(doc.elements_by_tag(doc.root(), "script").is_empty());
        assert!(doc.elements_by_tag(doc.root(), "style").is_empty());
        assert_eq!(doc.text_content(doc.root()), "keep");
    }

    #[test]
    fn unclosed_elements_survive_to_eof() {
        let doc = parse("<form><table><tr><td><input name=a>");
        assert_eq!(doc.elements_by_tag(doc.root(), "input").len(), 1);
        let input = doc.elements_by_tag(doc.root(), "input")[0];
        assert!(doc.ancestor_with_tag(input, "form").is_some());
        assert!(doc.ancestor_with_tag(input, "td").is_some());
    }

    #[test]
    fn attributes_preserved_through_build() {
        let doc = parse(r#"<input type="radio" name="fmt" value="hardcover" checked>"#);
        let input = doc.elements_by_tag(doc.root(), "input")[0];
        assert_eq!(doc.attr(input, "type"), Some("radio"));
        assert_eq!(doc.attr(input, "value"), Some("hardcover"));
        assert_eq!(doc.attr(input, "checked"), Some(""));
        assert_eq!(doc.attr(input, "missing"), None);
    }

    #[test]
    fn nested_tables() {
        let doc = parse(
            "<table><tr><td><table><tr><td>inner</td></tr></table></td><td>right</td></tr></table>",
        );
        let tables = doc.elements_by_tag(doc.root(), "table");
        assert_eq!(tables.len(), 2);
        let outer_row = doc.elements_by_tag(tables[0], "tr")[0];
        // Outer row has two cells even though the first contains a table.
        let cells: Vec<NodeId> = doc
            .children(outer_row)
            .iter()
            .copied()
            .filter(|&c| doc.tag(c) == Some("td"))
            .collect();
        assert_eq!(cells.len(), 2);
    }

    fn depth(doc: &Document, mut node: NodeId) -> usize {
        let mut d = 0;
        while let Some(p) = doc.parent(node) {
            d += 1;
            node = p;
        }
        d
    }

    #[test]
    fn tree_depth_is_capped_like_browsers() {
        let n = MAX_TREE_DEPTH + 100;
        let html = format!("{}x{}after", "<div>".repeat(n), "</div>".repeat(n));
        let doc = parse(&html);
        let deepest = doc.descendants(doc.root()).map(|id| depth(&doc, id)).max();
        assert_eq!(deepest, Some(MAX_TREE_DEPTH));
        // Every element is still created, in document order.
        assert_eq!(doc.elements_by_tag(doc.root(), "div").len(), n);
        assert_eq!(doc.text_content(doc.root()), "xafter");
        // End tags still match what was opened: the text after them is
        // back at the top level.
        let after = doc.children(doc.root()).last().copied().unwrap();
        assert_eq!(doc.text(after), Some("after"));
    }

    #[test]
    fn pages_under_the_cap_are_unchanged_by_it() {
        let n = MAX_TREE_DEPTH - 1;
        let doc = parse(&format!("{}x", "<b>".repeat(n)));
        let text = doc
            .descendants(doc.root())
            .find(|&id| doc.text(id).is_some())
            .unwrap();
        assert_eq!(depth(&doc, text), MAX_TREE_DEPTH);
    }

    #[test]
    fn textarea_content_is_text() {
        let doc = parse("<textarea name=c>default text</textarea>");
        let ta = doc.elements_by_tag(doc.root(), "textarea")[0];
        assert_eq!(doc.text_content(ta), "default text");
    }
}
