//! Normal-flow layout: blocks stack, inline content flows in line boxes.

use crate::font::{text_width, words, LINE_H, SPACE_W};
use crate::output::{Fragment, Layout};
use crate::style::{block_margin, display_of, is_line_break, Display, LIST_INDENT};
use crate::table;
use crate::widget::intrinsic_size;
use metaform_core::BBox;
use metaform_html::{Document, NodeData, NodeId};

/// Tunables for a layout run.
#[derive(Clone, Copy, Debug)]
pub struct LayoutOptions {
    /// Canvas width in pixels; content wraps at this edge.
    pub viewport: i32,
    /// Outer margin applied on all four sides.
    pub margin: i32,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        // 800px was the canonical design width of the era.
        LayoutOptions {
            viewport: 800,
            margin: 8,
        }
    }
}

/// Lays out a document at the default 800px viewport.
///
/// ```
/// let doc = metaform_html::parse("Author <input type='text' name='q'>");
/// let layout = metaform_layout::layout(&doc);
/// let input = doc.elements_by_tag(doc.root(), "input")[0];
/// let bbox = layout.bbox(input).unwrap();
/// assert!(bbox.width() > 0 && bbox.height() > 0);
/// ```
pub fn layout(doc: &Document) -> Layout {
    layout_with(doc, &LayoutOptions::default())
}

/// Lays out a document with explicit options.
///
/// Runs in time linear in the document: every node is visited at most
/// twice, once to measure a table cell's preferred width and once to
/// place it (DESIGN.md §5).
pub fn layout_with(doc: &Document, opts: &LayoutOptions) -> Layout {
    let mut flow = Flow::new(doc);
    let x = opts.margin;
    let width = (opts.viewport - 2 * opts.margin).max(40);
    flow.layout_children(doc.children(doc.root()), x, opts.margin, width);
    flow.finish()
}

/// Width at which a table cell's preferred (no-wrap) width is measured:
/// effectively infinite.
const MEASURE_WIDTH: i32 = 1_000_000;

/// Right and bottom edge of everything placed in one coordinate frame.
#[derive(Clone, Copy)]
pub(crate) struct Extent {
    pub(crate) right: i32,
    pub(crate) bottom: i32,
}

impl Extent {
    /// Nothing placed yet.
    const EMPTY: Extent = Extent {
        right: i32::MIN,
        bottom: i32::MIN,
    };

    fn add(&mut self, b: &BBox) {
        self.right = self.right.max(b.right);
        self.bottom = self.bottom.max(b.bottom);
    }
}

/// Layout state for one [`layout_with`] call.
///
/// Table cell content is laid out once, in a frame of its own whose
/// origin is the cell's content box; the cell's final offset is known
/// only after every cell of its table has been sized, so it is recorded
/// in `shift` and applied to the whole subtree by [`Flow::finish`] in a
/// single top-down sweep.
pub(crate) struct Flow<'a> {
    pub(crate) doc: &'a Document,
    buf: Layout,
    /// Monotone line-box counter. Only the order of ids is meaningful.
    line_ctr: u32,
    /// While set, placements only grow `ext`: a cell's preferred width
    /// is being measured and nothing is written to `buf`.
    pub(crate) measuring: bool,
    /// Extent of what has been placed in the current frame.
    ext: Extent,
    /// Memoized preferred content width per table cell (`-1`: not yet
    /// measured). Allocated on the first table.
    pref: Vec<i32>,
    /// Offset of each table cell's content frame within its parent's
    /// frame. Allocated on the first table.
    shift: Vec<(i32, i32)>,
    /// Pooled scratch: inline items awaiting line placement, the current
    /// line's `(item, left)` pairs, and the inline-subtree walk stack.
    items: Vec<Item<'a>>,
    line: Vec<(usize, i32)>,
    walk: Vec<NodeId>,
}

/// One atomic participant in inline flow.
enum Item<'a> {
    Word { node: NodeId, text: &'a str, w: i32 },
    Widget { node: NodeId, w: i32, h: i32 },
    Break,
}

impl Item<'_> {
    fn size(&self) -> (i32, i32) {
        match self {
            Item::Word { w, .. } => (*w, LINE_H),
            Item::Widget { w, h, .. } => (*w, *h),
            Item::Break => (0, 0),
        }
    }
}

impl<'a> Flow<'a> {
    fn new(doc: &'a Document) -> Self {
        Flow {
            doc,
            buf: Layout::sized(doc.len()),
            line_ctr: 0,
            measuring: false,
            ext: Extent::EMPTY,
            pref: Vec::new(),
            shift: Vec::new(),
            items: Vec::new(),
            line: Vec::new(),
            walk: Vec::new(),
        }
    }

    /// Counts one node visit (see [`Layout::visits`]).
    pub(crate) fn visit(&mut self) {
        self.buf.visits += 1;
    }

    /// Places a node's box in the current frame.
    pub(crate) fn place(&mut self, node: NodeId, bbox: BBox) {
        self.ext.add(&bbox);
        if !self.measuring {
            self.buf.set_bbox(node, bbox);
        }
    }

    fn place_word(&mut self, node: NodeId, text: &str, bbox: BBox) {
        self.ext.add(&bbox);
        if !self.measuring {
            push_fragment(&mut self.buf, node, text, bbox, self.line_ctr);
        }
    }

    /// Preferred (no-wrap) content width of a table cell: the right edge
    /// of its content laid out at an effectively infinite width. Tables
    /// never shrink a column below it, so it depends on the cell alone
    /// and is measured once per layout.
    pub(crate) fn pref_width(&mut self, cell: NodeId) -> i32 {
        if self.pref.is_empty() {
            self.pref = vec![-1; self.doc.len()];
        }
        let memo = self.pref[cell.index()];
        if memo >= 0 {
            return memo;
        }
        let outer = (self.measuring, self.ext);
        self.measuring = true;
        self.ext = Extent::EMPTY;
        self.layout_children(self.doc.children(cell), 0, 0, MEASURE_WIDTH);
        let width = self.ext.right.max(0);
        (self.measuring, self.ext) = outer;
        self.pref[cell.index()] = width;
        width
    }

    /// Lays out a table cell's content at `width` in the cell's own
    /// frame. Returns the flow y below the content and the frame's
    /// extent; the content height is the larger of the two bottoms.
    pub(crate) fn layout_cell(&mut self, cell: NodeId, width: i32) -> (i32, Extent) {
        let outer = std::mem::replace(&mut self.ext, Extent::EMPTY);
        let end = self.layout_children(self.doc.children(cell), 0, 0, width);
        (end, std::mem::replace(&mut self.ext, outer))
    }

    /// Moves a cell's content frame (extent `content`) to `(dx, dy)`
    /// within the current frame.
    pub(crate) fn shift_cell(&mut self, cell: NodeId, dx: i32, dy: i32, content: Extent) {
        if self.shift.is_empty() {
            self.shift = vec![(0, 0); self.doc.len()];
        }
        self.shift[cell.index()] = (dx, dy);
        if content.right != i32::MIN {
            self.ext.right = self.ext.right.max(content.right + dx);
            self.ext.bottom = self.ext.bottom.max(content.bottom + dy);
        }
    }

    /// Resolves cell frames to page coordinates — a node's offset is
    /// its parent's offset plus the parent's own cell shift, and parents
    /// precede children in the arena — then unions container boxes.
    fn finish(mut self) -> Layout {
        let doc = self.doc;
        if !self.shift.is_empty() {
            for idx in 1..doc.len() {
                let id = NodeId(idx as u32);
                let parent = doc.parent(id).expect("only the root has no parent");
                let (dx, dy) = self.shift[parent.index()];
                if dx == 0 && dy == 0 {
                    continue;
                }
                let own = &mut self.shift[idx];
                *own = (own.0 + dx, own.1 + dy);
                self.buf.translate_node(id, dx, dy);
            }
        }
        self.buf.finalize(doc);
        self.buf
    }

    /// Lays out a sequence of sibling nodes in normal flow starting at
    /// `(x, y)` within `width`. Returns the y coordinate below the
    /// content.
    fn layout_children(&mut self, children: &[NodeId], x: i32, y: i32, width: i32) -> i32 {
        let mut cur_y = y;
        for &child in children {
            if self.is_inline_level(child) {
                self.collect_inline(child);
            } else {
                cur_y = self.flush_lines(x, cur_y, width);
                cur_y = self.layout_block(child, x, cur_y, width);
            }
        }
        self.flush_lines(x, cur_y, width)
    }

    fn is_inline_level(&self, node: NodeId) -> bool {
        match &self.doc.node(node).data {
            NodeData::Text(_) => true,
            NodeData::Element { tag, .. } => matches!(
                display_of(tag),
                Display::Inline | Display::InlineWidget | Display::Hidden
            ),
            NodeData::Document => false,
        }
    }

    /// Gathers inline items from an inline-level subtree, in document
    /// order. Iterative, so inline nesting depth costs no stack.
    fn collect_inline(&mut self, node: NodeId) {
        let doc = self.doc;
        let mut walk = std::mem::take(&mut self.walk);
        walk.push(node);
        while let Some(node) = walk.pop() {
            self.visit();
            match &doc.node(node).data {
                NodeData::Text(text) => {
                    for word in words(text) {
                        self.items.push(Item::Word {
                            node,
                            text: word,
                            w: text_width(word),
                        });
                    }
                }
                NodeData::Element { tag, .. } => {
                    if is_line_break(tag) {
                        self.items.push(Item::Break);
                        continue;
                    }
                    match display_of(tag) {
                        Display::Hidden => {}
                        Display::InlineWidget => {
                            if let Some((w, h)) = intrinsic_size(doc, node) {
                                self.items.push(Item::Widget { node, w, h });
                            }
                        }
                        // Inline element (or a block illegally nested in
                        // inline context — flattened, see DESIGN.md):
                        // descend; its own bbox is unioned in finalize().
                        _ => walk.extend(doc.children(node).iter().rev()),
                    }
                }
                NodeData::Document => {}
            }
        }
        self.walk = walk;
    }

    /// Places accumulated inline items into line boxes; returns the new
    /// flow y. Items are separated by single spaces and bottom-aligned
    /// within each line, wrapping at `x + width`.
    fn flush_lines(&mut self, x: i32, y: i32, width: i32) -> i32 {
        if self.items.is_empty() {
            return y;
        }
        let items = std::mem::take(&mut self.items);
        let mut line = std::mem::take(&mut self.line);
        let right_edge = x + width;
        let mut cur_y = y;
        let mut cur_x = x;
        for (idx, item) in items.iter().enumerate() {
            if matches!(item, Item::Break) {
                if line.is_empty() {
                    cur_y += LINE_H; // blank line
                    self.line_ctr += 1;
                } else {
                    cur_y = self.place_line(&items, &mut line, cur_y);
                }
                cur_x = x;
                continue;
            }
            let (w, _) = item.size();
            if !line.is_empty() && cur_x + SPACE_W + w > right_edge {
                cur_y = self.place_line(&items, &mut line, cur_y);
                cur_x = x;
            }
            let lead = if line.is_empty() { 0 } else { SPACE_W };
            line.push((idx, cur_x + lead));
            cur_x += lead + w;
        }
        if !line.is_empty() {
            cur_y = self.place_line(&items, &mut line, cur_y);
        }
        self.items = items;
        self.items.clear();
        self.line = line;
        cur_y
    }

    /// Places one line box of `(item, left)` pairs at `y`, bottom-aligned,
    /// and empties `line`; returns the y below the line.
    fn place_line(&mut self, items: &[Item<'a>], line: &mut Vec<(usize, i32)>, y: i32) -> i32 {
        let line_h = line
            .iter()
            .map(|&(i, _)| items[i].size().1)
            .max()
            .unwrap_or(0)
            .max(LINE_H);
        for &(idx, left) in line.iter() {
            let (w, h) = items[idx].size();
            let bbox = BBox::at(left, y + line_h - h, w, h);
            match items[idx] {
                Item::Word { node, text, .. } => self.place_word(node, text, bbox),
                Item::Widget { node, .. } => self.place(node, bbox),
                Item::Break => {}
            }
        }
        line.clear();
        self.line_ctr += 1;
        y + line_h
    }

    /// Lays out one block-level element; returns the flow y below it.
    pub(crate) fn layout_block(&mut self, node: NodeId, x: i32, y: i32, width: i32) -> i32 {
        self.visit();
        let doc = self.doc;
        let Some(tag) = doc.tag(node) else {
            return y; // stray text handled by caller classification
        };
        if display_of(tag) == Display::Table {
            return table::layout_table(self, node, x, y, width);
        }
        if tag == "hr" {
            let m = block_margin("hr");
            self.place(node, BBox::at(x, y + m, width, 2));
            return y + 2 * m + 2;
        }
        let m = block_margin(tag);
        let (cx, cw) = if matches!(tag, "ul" | "ol" | "dl") {
            (x + LIST_INDENT, (width - LIST_INDENT).max(40))
        } else {
            (x, width)
        };
        let y0 = y + m;
        let end = self.layout_children(doc.children(node), cx, y0, cw);
        self.place(node, BBox::new(x, y0, x + width, end.max(y0)));
        end.max(y0) + m
    }
}

/// Appends a word to a node's fragment list, merging with the previous
/// fragment when contiguous on the same line.
fn push_fragment(buf: &mut Layout, node: NodeId, text: &str, bbox: BBox, line: u32) {
    let frags = &mut buf.fragments[node.index()];
    if let Some(last) = frags.last_mut() {
        if last.line == line && bbox.left == last.bbox.right + SPACE_W {
            last.text.push(' ');
            last.text.push_str(text);
            last.bbox = last.bbox.union(&bbox);
            return;
        }
    }
    frags.push(Fragment {
        text: text.to_string(),
        bbox,
        line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::font::CHAR_W;
    use metaform_html::parse;

    fn frag_of<'l>(doc: &Document, lay: &'l Layout, nth_text: usize) -> &'l Fragment {
        let mut seen = 0;
        for n in doc.descendants(doc.root()) {
            if doc.text(n).is_some() && !lay.fragments(n).is_empty() {
                if seen == nth_text {
                    return &lay.fragments(n)[0];
                }
                seen += 1;
            }
        }
        panic!("text node {nth_text} not found");
    }

    #[test]
    fn single_line_of_text() {
        let doc = parse("Author Name");
        let lay = layout(&doc);
        let f = frag_of(&doc, &lay, 0);
        assert_eq!(f.text, "Author Name");
        assert_eq!(f.bbox.left, 8);
        assert_eq!(f.bbox.top, 8);
        assert_eq!(f.bbox.width(), 11 * CHAR_W);
        assert_eq!(f.bbox.height(), LINE_H);
    }

    #[test]
    fn label_left_of_textbox() {
        let doc = parse("Author <input type=text name=q>");
        let lay = layout(&doc);
        let label = frag_of(&doc, &lay, 0);
        let input = doc.elements_by_tag(doc.root(), "input")[0];
        let tb = lay.bbox(input).unwrap();
        assert!(label.bbox.right < tb.left, "label ends before textbox");
        assert_eq!(tb.left - label.bbox.right, SPACE_W);
        // Bottom-aligned on the line (textbox taller than text).
        assert_eq!(label.bbox.bottom, tb.bottom);
        assert!(tb.top < label.bbox.top);
    }

    #[test]
    fn br_breaks_lines() {
        let doc = parse("Title<br><input type=text name=t>");
        let lay = layout(&doc);
        let label = frag_of(&doc, &lay, 0);
        let input = doc.elements_by_tag(doc.root(), "input")[0];
        let tb = lay.bbox(input).unwrap();
        assert!(tb.top >= label.bbox.bottom, "textbox on the next line");
        assert_eq!(tb.left, label.bbox.left, "flush left");
    }

    #[test]
    fn double_br_leaves_blank_line() {
        let doc = parse("a<br><br>b");
        let lay = layout(&doc);
        let a = frag_of(&doc, &lay, 0);
        let b = frag_of(&doc, &lay, 1);
        assert_eq!(b.bbox.top - a.bbox.top, 2 * LINE_H);
    }

    #[test]
    fn text_wraps_at_viewport() {
        let long = "word ".repeat(40);
        let doc = parse(&long);
        let lay = layout_with(
            &doc,
            &LayoutOptions {
                viewport: 200,
                margin: 8,
            },
        );
        let text_node = doc
            .descendants(doc.root())
            .find(|&n| doc.text(n).is_some())
            .unwrap();
        let frags = lay.fragments(text_node);
        assert!(frags.len() > 1, "must wrap into several lines");
        for f in frags {
            assert!(
                f.bbox.right <= 200 - 8 + CHAR_W,
                "inside viewport: {:?}",
                f.bbox
            );
        }
        // Lines strictly stack.
        for w in frags.windows(2) {
            assert!(w[1].bbox.top >= w[0].bbox.bottom);
        }
    }

    #[test]
    fn blocks_stack_vertically() {
        let doc = parse("<div>one</div><div>two</div>");
        let lay = layout(&doc);
        let divs = doc.elements_by_tag(doc.root(), "div");
        let (a, b) = (lay.bbox(divs[0]).unwrap(), lay.bbox(divs[1]).unwrap());
        assert_eq!(b.top, a.bottom);
    }

    #[test]
    fn paragraph_margins_separate() {
        let doc = parse("<p>one</p><p>two</p>");
        let lay = layout(&doc);
        let ps = doc.elements_by_tag(doc.root(), "p");
        let (a, b) = (lay.bbox(ps[0]).unwrap(), lay.bbox(ps[1]).unwrap());
        assert_eq!(b.top - a.bottom, 16, "8px bottom + 8px top margin");
    }

    #[test]
    fn inline_element_box_unions_content() {
        let doc = parse("<b>Last name</b>");
        let lay = layout(&doc);
        let b = doc.elements_by_tag(doc.root(), "b")[0];
        let text = doc.children(b)[0];
        assert_eq!(lay.bbox(b), Some(lay.fragments(text)[0].bbox));
    }

    #[test]
    fn radio_then_caption_share_line() {
        let doc = parse("<input type=radio name=o> Exact name");
        let lay = layout(&doc);
        let radio = lay
            .bbox(doc.elements_by_tag(doc.root(), "input")[0])
            .unwrap();
        let caption = frag_of(&doc, &lay, 0);
        assert!(radio.right < caption.bbox.left);
        assert!(radio.v_overlap(&caption.bbox) > 0, "same row");
    }

    #[test]
    fn hidden_input_has_no_box_and_no_gap() {
        let doc = parse("a <input type=hidden name=s> b");
        let lay = layout(&doc);
        let input = doc.elements_by_tag(doc.root(), "input")[0];
        assert_eq!(lay.bbox(input), None);
        let a = frag_of(&doc, &lay, 0);
        let b = frag_of(&doc, &lay, 1);
        assert_eq!(b.bbox.left - a.bbox.right, SPACE_W);
    }

    #[test]
    fn hr_spans_width() {
        let doc = parse("<hr>");
        let lay = layout(&doc);
        let hr = doc.elements_by_tag(doc.root(), "hr")[0];
        let b = lay.bbox(hr).unwrap();
        assert_eq!(b.width(), 800 - 16);
        assert_eq!(b.height(), 2);
    }

    #[test]
    fn list_items_indent() {
        let doc = parse("<ul><li>alpha<li>beta</ul>");
        let lay = layout(&doc);
        let lis = doc.elements_by_tag(doc.root(), "li");
        let a = lay.bbox(lis[0]).unwrap();
        assert_eq!(a.left, 8 + LIST_INDENT);
        let b = lay.bbox(lis[1]).unwrap();
        assert_eq!(b.top, a.bottom);
    }

    #[test]
    fn widget_heights_dominate_line() {
        let doc = parse("x <select><option>one</select>");
        let lay = layout(&doc);
        let sel = lay
            .bbox(doc.elements_by_tag(doc.root(), "select")[0])
            .unwrap();
        let x = frag_of(&doc, &lay, 0);
        assert_eq!(sel.bottom, x.bbox.bottom, "bottom aligned");
        assert_eq!(sel.height(), 20);
    }

    #[test]
    fn fragments_merge_across_words_not_lines() {
        let doc = parse("first name / initials and last name");
        let lay = layout(&doc);
        let f = frag_of(&doc, &lay, 0);
        assert_eq!(f.text, "first name / initials and last name");
    }
}
