//! Layout work grows linearly with the page, pinned by the engine's
//! deterministic node-visit counter rather than wall-clock time.
//!
//! Laying a table cell's content out again for every enclosing table
//! costs ~3× per nesting level, which shows up here as visits growing
//! faster than the page.

use metaform_datasets::adversarial::Shape;

/// Layout node visits and DOM size of `shape` at `size`.
fn work(shape: Shape, size: usize) -> (u64, u64) {
    let doc = metaform_html::parse(&shape.page(size));
    let lay = metaform_layout::layout(&doc);
    (lay.visits(), doc.len() as u64)
}

/// Visits per DOM node never exceed this: each node is entered at most
/// twice (measured once, placed once), plus one visit per table row and
/// cell each time its table is sized.
const VISITS_PER_NODE: u64 = 3;

/// Doubling a page's size may at most about double the layout work.
const DOUBLING_BOUND: f64 = 2.2;

/// Checks the per-node bound at every size, and the doubling bound for
/// every pair of sizes `s`, `2s` in `sizes`.
fn assert_linear(shape: Shape, sizes: &[usize]) {
    let work: Vec<(u64, u64)> = sizes.iter().map(|&s| work(shape, s)).collect();
    for (&size, &(visits, nodes)) in sizes.iter().zip(&work) {
        assert!(
            visits <= VISITS_PER_NODE * nodes,
            "{}/{size}: {visits} visits for {nodes} nodes",
            shape.as_str()
        );
        if let Some(k) = sizes.iter().position(|&s| s == 2 * size) {
            let ratio = work[k].0 as f64 / visits as f64;
            assert!(
                ratio <= DOUBLING_BOUND,
                "{}: size {size} → {} multiplied visits by {ratio:.2}",
                shape.as_str(),
                2 * size
            );
        }
    }
}

#[test]
fn nested_tables_cost_linear_work_in_depth() {
    let depths: Vec<usize> = (2..=14).collect();
    assert_linear(Shape::NestedTables, &depths);
}

#[test]
fn wide_tables_cost_linear_work_in_rows() {
    assert_linear(
        Shape::WideTable,
        &[10, 20, 40, 80, 160, 320, 640, 1000, 1280, 2000, 2560, 4000],
    );
}

#[test]
fn other_adversarial_shapes_cost_linear_work() {
    for shape in [Shape::NestedDivs, Shape::LongText, Shape::DeepInline] {
        assert_linear(shape, &[50, 100, 200, 400]);
    }
}
