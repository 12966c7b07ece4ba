//! Seeded workload generation. Everything here is a pure function of
//! the `--seed` argument; the program under test only ever sees the
//! HTML strings it produces.

use metaform_datasets::dataset::{generate_source, GenParams};
use metaform_datasets::{domains, revisit, PatternId, Schema, Source};

/// Pages per in-process job, and per service submission.
pub const JOB_PAGES: usize = 8;

/// SplitMix64: a small, fully specified generator, so a seed gives the
/// same workload on every host and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6D65_7461_666F_726D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated page: its HTML, and the generated source with its
/// ground truth when the page carries that source's form unchanged
/// (mutated revisits have none).
#[derive(Clone, Debug)]
pub struct Page {
    pub html: String,
    pub source: Option<Source>,
}

impl Page {
    /// Whether the form uses a pattern the grammar withholds.
    pub fn withheld(&self) -> bool {
        self.source
            .as_ref()
            .is_some_and(|s| s.patterns.iter().any(|p| !PatternId::in_grammar(*p)))
    }
}

/// Schemas and generation parameters of generator profile `p`: Basic,
/// NewSource, NewDomain, Random.
fn profile(p: usize) -> (Vec<Schema>, GenParams) {
    match p {
        0 => (core_domains(), GenParams::basic()),
        1 => (core_domains(), GenParams::new_source()),
        2 => (domains::new_domains(), GenParams::new_domain()),
        _ => (domains::random_pools(), GenParams::random()),
    }
}

/// Sources per profile in the paper's four datasets (§3.1, and
/// `metaform_datasets::dataset::all_datasets`): Basic 150, NewSource
/// 30, NewDomain 42, Random 30. The survey stream mixes the profiles in
/// these proportions.
const PROFILE_SOURCES: [usize; 4] = [150, 30, 42, 30];
/// Pages in which the mix is exact: the sum of [`PROFILE_SOURCES`].
pub const PROFILE_CYCLE: usize = 252;
/// Stride through one cycle, coprime with it, so that short runs of
/// consecutive pages are mixed too.
const PROFILE_STRIDE: usize = 155;

/// The generator profile of page `index`.
fn profile_of(index: usize) -> usize {
    let mut slot = (index % PROFILE_CYCLE) * PROFILE_STRIDE % PROFILE_CYCLE;
    for (p, &sources) in PROFILE_SOURCES.iter().enumerate() {
        if slot < sources {
            return p;
        }
        slot -= sources;
    }
    unreachable!("the profile sources sum to PROFILE_CYCLE")
}

/// One survey-like form: page `index` of a seeded stream over the four
/// generator profiles in the paper's dataset proportions, withheld
/// patterns included. Within its profile the form is drawn as the
/// datasets draw theirs: a uniform schema, then `generate_source` with
/// the profile's own distribution of sizes and patterns.
pub fn survey_page(seed: u64, index: usize) -> Page {
    let (schemas, params) = profile(profile_of(index));
    let mut rng = Rng::new(seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let schema = &schemas[rng.below(schemas.len())];
    let source = generate_source(schema, index, rng.next_u64(), &params);
    Page {
        html: source.html.clone(),
        source: Some(source),
    }
}

fn core_domains() -> Vec<Schema> {
    vec![
        domains::books(),
        domains::automobiles(),
        domains::airfares(),
    ]
}

/// `n` survey-like forms.
pub fn survey_pool(seed: u64, n: usize) -> Vec<Page> {
    (0..n).map(|i| survey_page(seed, i)).collect()
}

/// Site chrome a sloppy site wraps around its search form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChromeKind {
    /// Layout tables nested `depth` deep, a navigation column at each
    /// level.
    Nested { depth: usize },
    /// One listing table of `rows` rows.
    Wide { rows: usize },
    /// Paragraphs of up to 500 words, `words` words in all.
    Text { words: usize },
}

const WORDS: [&str; 24] = [
    "catalog", "search", "new", "arrivals", "members", "login", "help", "contact", "privacy",
    "terms", "shipping", "returns", "gift", "cards", "sale", "today", "featured", "top", "sellers",
    "about", "us", "careers", "press", "sitemap",
];

fn words(rng: &mut Rng, n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.below(WORDS.len())]);
    }
    out
}

/// The site chrome of the hostile pool: nested layout tables 2–5 deep,
/// listing tables of 50–150 rows and a long text run.
pub const CHROME: [ChromeKind; 8] = [
    ChromeKind::Nested { depth: 2 },
    ChromeKind::Nested { depth: 3 },
    ChromeKind::Nested { depth: 4 },
    ChromeKind::Nested { depth: 5 },
    ChromeKind::Wide { rows: 50 },
    ChromeKind::Wide { rows: 100 },
    ChromeKind::Wide { rows: 150 },
    ChromeKind::Text { words: 3000 },
];

/// Renders `kind` as HTML with seeded text.
pub fn chrome_html(kind: ChromeKind, rng: &mut Rng) -> String {
    let mut out = String::new();
    match kind {
        ChromeKind::Nested { depth } => {
            for _ in 0..depth {
                out.push_str("<table><tr><td>");
                for _ in 0..4 {
                    out.push_str(&format!("<a href=\"#\">{}</a><br>", words(rng, 2)));
                }
                out.push_str("</td><td>");
                out.push_str(&words(rng, 6));
                out.push_str("<br>");
            }
            for _ in 0..depth {
                out.push_str("</td></tr></table>\n");
            }
        }
        ChromeKind::Wide { rows } => {
            out.push_str("<table>\n");
            for r in 0..rows {
                out.push_str(&format!(
                    "<tr><td>{r}</td><td>{}</td></tr>\n",
                    words(rng, 2)
                ));
            }
            out.push_str("</table>\n");
        }
        ChromeKind::Text { words: n } => {
            let mut left = n;
            while left > 0 {
                let take = left.min(500);
                out.push_str(&format!("<p>{}</p>\n", words(rng, take)));
                left -= take;
            }
        }
    }
    out
}

/// The hostile pool: `forms` survey forms, each placed after site
/// chrome outside the form. Form `f` gets chrome `CHROME[f % 8]`, so
/// each kind of chrome meets the same mix of form profiles. The
/// tokenizer reads only the form, so the
/// parse sees the survey form's tokens; html and layout pay for the
/// whole page.
pub fn hostile_pool(seed: u64, forms: usize) -> Vec<Page> {
    (0..forms)
        .map(|f| {
            let form = survey_page(seed, f);
            let kind = CHROME[f % CHROME.len()];
            let mut rng = Rng::new(seed ^ 0xC40E ^ (f as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25));
            Page {
                html: format!(
                    "<div class=\"site\">\n{}</div>\n{}",
                    chrome_html(kind, &mut rng),
                    form.html
                ),
                source: form.source,
            }
        })
        .collect()
}

/// In-process jobs: consecutive `JOB_PAGES`-page slices of seeded
/// permutations of the pool, a fresh permutation per pass, so every
/// page is served equally often and the sequence repeats across runs.
pub struct JobSweep {
    seed: u64,
    order: Vec<usize>,
    pass: u64,
    at: usize,
}

impl JobSweep {
    pub fn new(seed: u64, pool: usize) -> Self {
        JobSweep {
            seed,
            order: (0..pool).collect(),
            pass: 0,
            at: pool,
        }
    }

    pub fn next_job(&mut self) -> [usize; JOB_PAGES] {
        if self.at + JOB_PAGES > self.order.len() {
            self.pass += 1;
            Rng::new(self.seed ^ self.pass.wrapping_mul(0xD6E8_FEB8_6659_FD93))
                .shuffle(&mut self.order);
            self.at = 0;
        }
        self.at += JOB_PAGES;
        std::array::from_fn(|k| self.order[self.at - JOB_PAGES + k])
    }
}

/// What a service-stream page is relative to earlier traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Visit {
    /// An unchanged base page.
    Repeat,
    /// A base page with one `revisit` mutation applied.
    Mutated,
    /// A page generated for this slot alone.
    Fresh,
}

/// The revisit stream: pages drawn Zipf from a base pool, mixing exact
/// repeats, mutated revisits and fresh pages. `pages` holds every
/// distinct page once; `stream` indexes into it in send order.
pub struct RevisitStream {
    pub pages: Vec<Page>,
    pub stream: Vec<usize>,
    pub visits: Vec<Visit>,
}

/// Each job's pages: this many exact repeats and mutated revisits, the
/// rest fresh, in a seeded order. The split is an assumption, not a
/// measurement — no crawl log with revisit and mutation shares is at
/// hand. It is chosen so most pages take the cache's hit path, and two
/// mutated revisits and one fresh page per job keep misses, stores and
/// evictions going.
pub const JOB_REPEATS: usize = 5;
pub const JOB_MUTATED: usize = 2;
/// Zipf exponent of base-page popularity: s = 1, the usual first guess
/// for web popularity; also an assumption.
pub const ZIPF_S: f64 = 1.0;

/// The revisit stream of `jobs` jobs over `base` Zipf-popular pages.
pub fn revisit_stream(seed: u64, base: usize, jobs: usize) -> RevisitStream {
    let mut pages = survey_pool(seed, base);
    // Popularity rank r has weight 1/r^s; ranks are assigned by a
    // seeded shuffle so popular pages differ between seeds.
    let mut rng = Rng::new(seed ^ 0x21FF);
    let mut by_rank: Vec<usize> = (0..base).collect();
    rng.shuffle(&mut by_rank);
    let mut cdf = Vec::with_capacity(base);
    let mut total = 0.0;
    for r in 0..base {
        total += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
        cdf.push(total);
    }
    let zipf = |rng: &mut Rng| {
        let u = rng.unit() * total;
        by_rank[cdf.partition_point(|&c| c < u).min(base - 1)]
    };
    // Distinct mutated variants, created on first use: (base, kind).
    let mut variants: std::collections::HashMap<(usize, usize), usize> = Default::default();
    let mut stream = Vec::with_capacity(jobs * JOB_PAGES);
    let mut visits = Vec::with_capacity(jobs * JOB_PAGES);
    for _ in 0..jobs {
        let mut kinds = [Visit::Fresh; JOB_PAGES];
        kinds[..JOB_REPEATS].fill(Visit::Repeat);
        kinds[JOB_REPEATS..JOB_REPEATS + JOB_MUTATED].fill(Visit::Mutated);
        rng.shuffle(&mut kinds);
        for visit in kinds {
            let slot = match visit {
                Visit::Repeat => zipf(&mut rng),
                Visit::Mutated => {
                    let b = zipf(&mut rng);
                    let kind = rng.below(3);
                    let next = pages.len();
                    let slot = *variants.entry((b, kind)).or_insert(next);
                    if slot == next {
                        let html = &pages[b].html;
                        let mutated = match kind {
                            0 => revisit::label_edit(html),
                            1 => revisit::insert_row(html),
                            _ => revisit::bbox_jitter(html),
                        };
                        pages.push(Page {
                            html: mutated
                                .unwrap_or_else(|| revisit::insert_row(html).unwrap_or_default()),
                            source: None,
                        });
                    }
                    slot
                }
                Visit::Fresh => {
                    // Fresh pages continue the base pool's generator
                    // stream past every index the pool could use.
                    pages.push(survey_page(seed, base * 16 + pages.len()));
                    pages.len() - 1
                }
            };
            stream.push(slot);
            visits.push(visit);
        }
    }
    RevisitStream {
        pages,
        stream,
        visits,
    }
}
