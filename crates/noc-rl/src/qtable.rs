//! The tabular action-value function.
//!
//! One [`QTable`] per router maps `(state, action)` pairs to expected
//! returns. Values are updated with the temporal-difference rule of the
//! paper's Eq. (2):
//!
//! ```text
//! Q(s,a) ← (1−α)·Q(s,a) + α·[r + γ·max_a' Q(s',a')]
//! ```

use crate::NUM_ACTIONS;
use serde::{Deserialize, Serialize};

/// States per page. A page is the unit of allocation: 32 rows of 48
/// bytes, 1.5 KiB.
const PAGE_STATES: usize = 32;

/// The largest state count a persisted table may declare. [`QTable::load`]
/// and `PolicySnapshot::read` reject a larger one before allocating
/// anything. It is above every space the tree builds: the paper's
/// 10 000 states, 30 000 with three fault-degree bins, and 6⁶ = 46 656
/// in the bin-granularity ablation. A table of this size has at most a
/// 16 KiB page directory.
pub const MAX_STATES: usize = 1 << 16;

/// One state's action values and per-action update counts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    values: [f64; NUM_ACTIONS],
    visits: [u32; NUM_ACTIONS],
}

type Page = [Row; PAGE_STATES];

/// A `num_states × NUM_ACTIONS` table of Q-values, stored in pages of
/// `PAGE_STATES` (32) rows that are allocated when one of their states is
/// first written. Every state of a page that was never written reads as
/// the one blank row (`[initial; 4]`, no visits), so a table costs what
/// its agent visited rather than the size of the state space; a table
/// with every page written is the dense `num_states × 48` bytes plus one
/// pointer per page. The page directory itself grows on write, up to the
/// highest page written, so a table with no rows allocates nothing.
///
/// Equality is logical: an unwritten page equals a page of blank rows.
///
/// # Example
///
/// ```
/// use noc_rl::qtable::QTable;
///
/// let mut q = QTable::new(100);
/// q.update(3, 1, 10.0, 4, 0.1, 0.5);
/// assert!(q.value(3, 1) > 0.0);
/// assert_eq!(q.best_action(3), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QTable {
    num_states: usize,
    blank: Row,
    pages: Vec<Option<Box<Page>>>,
    updates: u64,
}

impl PartialEq for QTable {
    fn eq(&self, other: &Self) -> bool {
        self.num_states == other.num_states
            && self.updates == other.updates
            && (0..self.num_states.div_ceil(PAGE_STATES)).all(|p| {
                if self.page(p).is_none() && other.page(p).is_none() {
                    return self.blank == other.blank;
                }
                // The last page may extend past `num_states`.
                let first = p * PAGE_STATES;
                (first..(first + PAGE_STATES).min(self.num_states))
                    .all(|s| self.stored(s) == other.stored(s))
            })
    }
}

impl QTable {
    /// Creates a table of zeros (the paper initializes Q-values to 0).
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0`.
    pub fn new(num_states: usize) -> Self {
        Self::with_initial(num_states, 0.0)
    }

    /// Creates a table with every entry set to `initial`.
    ///
    /// An *optimistic* initial value (above the maximum achievable
    /// return) makes the greedy policy systematically try every action in
    /// every visited state before settling — important for convergence
    /// within the paper's pre-training budget when rewards are strictly
    /// positive.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0` or `initial` is not finite.
    pub fn with_initial(num_states: usize, initial: f64) -> Self {
        assert!(num_states > 0, "state space must be non-empty");
        assert!(initial.is_finite(), "initial Q-value must be finite");
        Self {
            num_states,
            blank: Row {
                values: [initial; NUM_ACTIONS],
                visits: [0; NUM_ACTIONS],
            },
            pages: Vec::new(),
            updates: 0,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Total TD updates applied (for the computation-overhead analysis).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Number of states held in allocated pages — the table's memory
    /// footprint in rows. A multiple of the page size.
    pub fn touched_states(&self) -> usize {
        self.pages.iter().flatten().count() * PAGE_STATES
    }

    /// Page `p`, if it was ever written.
    #[inline]
    fn page(&self, p: usize) -> Option<&Page> {
        self.pages.get(p)?.as_deref()
    }

    #[inline]
    fn stored(&self, state: usize) -> &Row {
        assert!(state < self.num_states, "state out of range");
        match self.page(state / PAGE_STATES) {
            Some(page) => &page[state % PAGE_STATES],
            None => &self.blank,
        }
    }

    /// The row of `state` for writing, allocating its page on first touch.
    #[inline]
    fn stored_mut(&mut self, state: usize) -> &mut Row {
        assert!(state < self.num_states, "state out of range");
        let Self { pages, blank, .. } = self;
        let p = state / PAGE_STATES;
        if p >= pages.len() {
            pages.resize(p + 1, None);
        }
        let page = pages[p].get_or_insert_with(|| Box::new([*blank; PAGE_STATES]));
        &mut page[state % PAGE_STATES]
    }

    /// The rows of every allocated page, in ascending state order.
    fn touched_rows(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| Some((p, page.as_deref()?)))
            .flat_map(|(p, page)| {
                page.iter()
                    .enumerate()
                    .map(move |(i, row)| (p * PAGE_STATES + i, row))
            })
    }

    /// The Q-values of every row held in memory, in ascending state
    /// order, followed by the blank row every other state reads as (under
    /// the index `num_states`).
    #[cfg(feature = "verify")]
    pub(crate) fn stored_values(&self) -> impl Iterator<Item = (usize, &[f64; NUM_ACTIONS])> {
        self.touched_rows()
            .map(|(s, row)| (s, &row.values))
            .chain(std::iter::once((self.num_states, &self.blank.values)))
    }

    /// The Q-value of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `action` is out of range.
    pub fn value(&self, state: usize, action: usize) -> f64 {
        assert!(action < NUM_ACTIONS, "action out of range");
        self.stored(state).values[action]
    }

    /// All four Q-values of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn row(&self, state: usize) -> &[f64] {
        &self.stored(state).values
    }

    /// The greedy action in `state` (lowest index wins ties — mode 0, the
    /// cheapest, is the tie-break default).
    pub fn best_action(&self, state: usize) -> usize {
        let row = self.row(state);
        let mut best = 0;
        for (a, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = a;
            }
        }
        best
    }

    /// The maximum Q-value in `state`.
    pub fn max_value(&self, state: usize) -> f64 {
        self.row(state)
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Applies the temporal-difference update of Eq. (2).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or `alpha`/`gamma` are outside
    /// `[0, 1]`.
    pub fn update(
        &mut self,
        state: usize,
        action: usize,
        reward: f64,
        next_state: usize,
        alpha: f64,
        gamma: f64,
    ) {
        assert!(action < NUM_ACTIONS, "action out of range");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0,1]");
        let target = reward + gamma * self.max_value(next_state);
        let row = self.stored_mut(state);
        let cell = &mut row.values[action];
        *cell = (1.0 - alpha) * *cell + alpha * target;
        row.visits[action] += 1;
        self.updates += 1;
    }

    /// How many TD updates have been applied to `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `action` is out of range.
    pub fn visit_count(&self, state: usize, action: usize) -> u32 {
        assert!(action < NUM_ACTIONS, "action out of range");
        self.stored(state).visits[action]
    }

    /// States that have received at least one update, with their total
    /// visit counts, most-visited first.
    pub fn visited_states(&self) -> Vec<(usize, u32)> {
        let mut out: Vec<(usize, u32)> = self
            .touched_rows()
            .filter_map(|(s, row)| {
                let total: u32 = row.visits.iter().sum();
                (total > 0).then_some((s, total))
            })
            .collect();
        out.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_table_is_zero() {
        let q = QTable::new(10);
        for s in 0..10 {
            for a in 0..NUM_ACTIONS {
                assert_eq!(q.value(s, a), 0.0);
            }
        }
        assert_eq!(q.updates(), 0);
    }

    #[test]
    fn update_moves_toward_target() {
        let mut q = QTable::new(4);
        q.update(0, 2, 1.0, 1, 0.5, 0.0);
        assert_eq!(q.value(0, 2), 0.5);
        q.update(0, 2, 1.0, 1, 0.5, 0.0);
        assert_eq!(q.value(0, 2), 0.75);
    }

    #[test]
    fn discounted_bootstrap_uses_next_state_max() {
        let mut q = QTable::new(4);
        // Prime the next state.
        q.update(1, 3, 2.0, 2, 1.0, 0.0); // Q(1,3) = 2
        q.update(0, 0, 0.0, 1, 1.0, 0.5); // target = 0 + 0.5 * 2 = 1
        assert_eq!(q.value(0, 0), 1.0);
    }

    #[test]
    fn best_action_breaks_ties_toward_mode_zero() {
        let q = QTable::new(4);
        assert_eq!(q.best_action(0), 0, "all-zero row defaults to mode 0");
    }

    #[test]
    fn best_action_finds_maximum() {
        let mut q = QTable::new(4);
        q.update(2, 1, 5.0, 3, 1.0, 0.0);
        q.update(2, 3, 7.0, 3, 1.0, 0.0);
        assert_eq!(q.best_action(2), 3);
        assert_eq!(q.max_value(2), 7.0);
    }

    #[test]
    fn repeated_updates_converge_to_constant_reward() {
        // With gamma = 0 and constant reward r, Q converges to r.
        let mut q = QTable::new(2);
        for _ in 0..200 {
            q.update(0, 0, 3.0, 1, 0.1, 0.0);
        }
        assert!((q.value(0, 0) - 3.0).abs() < 1e-6);
        assert_eq!(q.updates(), 200);
    }

    #[test]
    fn row_has_four_entries() {
        let q = QTable::new(3);
        assert_eq!(q.row(1).len(), NUM_ACTIONS);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let mut q = QTable::new(2);
        q.update(0, 0, 1.0, 1, 1.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "state space must be non-empty")]
    fn empty_table_panics() {
        let _ = QTable::new(0);
    }

    #[test]
    #[should_panic(expected = "action out of range")]
    fn update_rejects_an_action_that_would_land_in_the_next_state() {
        let mut q = QTable::new(4);
        q.update(0, NUM_ACTIONS, 1.0, 1, 0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "action out of range")]
    fn visit_count_rejects_an_out_of_range_action() {
        let _ = QTable::new(4).visit_count(0, NUM_ACTIONS);
    }

    #[test]
    #[should_panic(expected = "state out of range")]
    fn a_state_past_the_end_of_the_last_page_is_out_of_range() {
        // 10 states occupy a third of one page; the rest is not addressable.
        let _ = QTable::new(10).row(10);
    }

    #[test]
    fn memory_follows_the_states_written_not_the_state_space() {
        let mut q = QTable::new(10_000);
        assert_eq!(q.touched_states(), 0);
        // Reads allocate nothing.
        assert_eq!(q.row(9_999), [0.0; NUM_ACTIONS]);
        assert_eq!(q.best_action(5_000), 0);
        assert_eq!(q.touched_states(), 0);
        for (i, s) in [0, 1, 40, 977, 978, 4_321, 8_000, 9_999]
            .into_iter()
            .enumerate()
        {
            q.update(s, i % NUM_ACTIONS, 1.0, (s + 1) % 10_000, 0.5, 0.5);
        }
        assert!(q.touched_states() <= 8 * PAGE_STATES);
        assert_eq!(q.visited_states().len(), 8);
    }

    #[test]
    fn an_unwritten_page_equals_a_page_of_blank_rows() {
        let mut written = QTable::with_initial(100, 2.0);
        written.update(70, 1, 2.0, 71, 0.0, 0.0); // alpha 0: the value stays 2.0
        let mut twin = QTable::with_initial(100, 2.0);
        assert_ne!(written, twin, "visit counts and update totals differ");
        twin.update(70, 1, 2.0, 5, 0.0, 0.0);
        assert_eq!(written, twin);

        // Loading a listed row that reads as blank allocates its page and
        // changes nothing observable.
        let loaded = QTable::load(&b"qtable 100 0\n99 0 0 0 0 0 0 0 0\n"[..]).expect("parses");
        assert_eq!(loaded.touched_states(), PAGE_STATES);
        assert_eq!(loaded, QTable::new(100));
        assert_eq!(QTable::new(100), loaded);
        assert_ne!(loaded, QTable::with_initial(100, 2.0));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Q-values stay bounded by max |reward| / (1 - gamma), the
        /// standard contraction bound.
        #[test]
        fn values_bounded_by_return_bound(
            updates in proptest::collection::vec((0usize..8, 0usize..4, -1.0f64..1.0, 0usize..8), 1..200)
        ) {
            let mut q = QTable::new(8);
            let gamma = 0.5;
            for (s, a, r, s2) in updates {
                q.update(s, a, r, s2, 0.1, gamma);
            }
            let bound = 1.0 / (1.0 - gamma) + 1e-9;
            for s in 0..8 {
                for a in 0..NUM_ACTIONS {
                    prop_assert!(q.value(s, a).abs() <= bound);
                }
            }
        }

        /// best_action is consistent with max_value.
        #[test]
        fn best_matches_max(
            updates in proptest::collection::vec((0usize..4, 0usize..4, -1.0f64..1.0), 1..50)
        ) {
            let mut q = QTable::new(4);
            for (s, a, r) in updates {
                q.update(s, a, r, (s + 1) % 4, 0.2, 0.3);
            }
            for s in 0..4 {
                prop_assert_eq!(q.value(s, q.best_action(s)), q.max_value(s));
            }
        }
    }

    /// The dense `num_states × NUM_ACTIONS` vectors the paged table
    /// replaced, kept here as its oracle.
    struct Dense {
        values: Vec<f64>,
        visits: Vec<u32>,
        updates: u64,
    }

    impl Dense {
        fn new(num_states: usize, initial: f64) -> Self {
            Self {
                values: vec![initial; num_states * NUM_ACTIONS],
                visits: vec![0; num_states * NUM_ACTIONS],
                updates: 0,
            }
        }

        fn row(&self, s: usize) -> &[f64] {
            &self.values[s * NUM_ACTIONS..(s + 1) * NUM_ACTIONS]
        }

        fn max_value(&self, s: usize) -> f64 {
            self.row(s)
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }

        fn best_action(&self, s: usize) -> usize {
            let row = self.row(s);
            (0..NUM_ACTIONS).fold(0, |best, a| if row[a] > row[best] { a } else { best })
        }

        fn update(&mut self, s: usize, a: usize, r: f64, s2: usize, alpha: f64, gamma: f64) {
            let target = r + gamma * self.max_value(s2);
            let cell = &mut self.values[s * NUM_ACTIONS + a];
            *cell = (1.0 - alpha) * *cell + alpha * target;
            self.visits[s * NUM_ACTIONS + a] += 1;
            self.updates += 1;
        }

        fn visit_total(&self, s: usize) -> u32 {
            self.visits[s * NUM_ACTIONS..(s + 1) * NUM_ACTIONS]
                .iter()
                .sum()
        }

        fn save(&self) -> String {
            let num_states = self.values.len() / NUM_ACTIONS;
            let mut visited: Vec<usize> = (0..num_states)
                .filter(|&s| self.visit_total(s) > 0)
                .collect();
            visited.sort_by_key(|&s| std::cmp::Reverse(self.visit_total(s)));
            let mut out = format!("qtable {num_states} {}\n", self.updates);
            for s in visited {
                out += &s.to_string();
                for v in self.row(s) {
                    out += &format!(" {v:e}");
                }
                for n in &self.visits[s * NUM_ACTIONS..(s + 1) * NUM_ACTIONS] {
                    out += &format!(" {n}");
                }
                out += "\n";
            }
            out
        }

        /// What `save` → `load` leaves: only visited rows are written,
        /// and an unlisted state loads as zeros whatever the initial
        /// value was.
        fn reload(&mut self) {
            for s in 0..self.values.len() / NUM_ACTIONS {
                if self.visit_total(s) == 0 {
                    self.values[s * NUM_ACTIONS..(s + 1) * NUM_ACTIONS].fill(0.0);
                }
            }
        }
    }

    fn saved(q: &QTable) -> String {
        let mut buf = Vec::new();
        q.save(&mut buf).expect("write to vec");
        String::from_utf8(buf).expect("utf8")
    }

    proptest! {
        /// Any sequence of updates, reads and save → load round trips
        /// gives the answers, bit for bit, and the `save` bytes of the
        /// dense table — zero-initialised or optimistic, over a state
        /// count whose last page is partial.
        #[test]
        fn paged_table_answers_as_the_dense_one(
            optimistic in 0u8..2,
            ops in proptest::collection::vec(
                (0u8..12, 0usize..100, 0usize..NUM_ACTIONS, -2.0f64..2.0, 0usize..100, 0.0f64..1.0),
                1..120,
            )
        ) {
            let initial = if optimistic == 1 { 5.0 } else { 0.0 };
            let mut q = QTable::with_initial(100, initial);
            let mut dense = Dense::new(100, initial);
            for (op, s, a, r, s2, alpha) in ops {
                match op {
                    0..=5 => {
                        q.update(s, a, r, s2, alpha, 0.5);
                        dense.update(s, a, r, s2, alpha, 0.5);
                    }
                    6 => prop_assert_eq!(q.value(s, a).to_bits(), dense.row(s)[a].to_bits()),
                    7 => prop_assert_eq!(q.row(s), dense.row(s)),
                    8 => prop_assert_eq!(q.best_action(s), dense.best_action(s)),
                    9 => prop_assert_eq!(q.max_value(s).to_bits(), dense.max_value(s).to_bits()),
                    10 => prop_assert_eq!(q.visit_count(s, a), dense.visits[s * NUM_ACTIONS + a]),
                    _ => {
                        let text = saved(&q);
                        prop_assert_eq!(&text, &dense.save());
                        let loaded = QTable::load(text.as_bytes()).expect("parse own output");
                        if initial == 0.0 {
                            prop_assert_eq!(&loaded, &q);
                        }
                        q = loaded;
                        dense.reload();
                    }
                }
            }
            prop_assert_eq!(q.updates(), dense.updates);
            for s in 0..100 {
                for a in 0..NUM_ACTIONS {
                    prop_assert_eq!(q.value(s, a).to_bits(), dense.row(s)[a].to_bits());
                    prop_assert_eq!(q.visit_count(s, a), dense.visits[s * NUM_ACTIONS + a]);
                }
            }
            prop_assert_eq!(saved(&q), dense.save());
        }
    }
}

/// Error parsing a persisted Q-table.
#[derive(Debug)]
pub struct ParseQTableError {
    /// 1-based line of the input the error was found on.
    pub(crate) line: usize,
    pub(crate) message: String,
}

impl std::fmt::Display for ParseQTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "q-table parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseQTableError {}

impl QTable {
    /// Writes the table in a sparse, line-oriented text format: a header
    /// with the state count, then one line per visited state holding the
    /// four Q-values and the four visit counts.
    ///
    /// Persisting a pre-trained policy lets deployments skip the
    /// pre-training phase entirely.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn save<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(writer, "qtable {} {}", self.num_states, self.updates)?;
        for (state, _) in self.visited_states() {
            write!(writer, "{state}")?;
            for a in 0..NUM_ACTIONS {
                write!(writer, " {:e}", self.value(state, a))?;
            }
            for a in 0..NUM_ACTIONS {
                write!(writer, " {}", self.visit_count(state, a))?;
            }
            writeln!(writer)?;
        }
        Ok(())
    }

    /// Reads a table previously written by [`save`](Self::save).
    /// Unlisted states are zero-valued, as after [`QTable::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseQTableError`] on malformed input, including a
    /// state count above [`MAX_STATES`].
    pub fn load<R: std::io::BufRead>(reader: R) -> Result<Self, ParseQTableError> {
        let err = |line: usize, message: String| ParseQTableError { line, message };
        let mut lines = reader.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| err(1, "empty input".into()))?;
        let header = header.map_err(|e| err(1, e.to_string()))?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("qtable") {
            return Err(err(1, "missing `qtable` header".into()));
        }
        let num_states: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| err(1, "bad state count".into()))?;
        if num_states > MAX_STATES {
            return Err(err(
                1,
                format!("state count {num_states} above the {MAX_STATES}-state cap"),
            ));
        }
        let updates: u64 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(1, "bad update count".into()))?;
        let mut table = QTable::new(num_states);
        table.updates = updates;
        let mut listed = std::collections::HashSet::new();
        for (i, line) in lines {
            let line = line.map_err(|e| err(i + 1, e.to_string()))?;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 1 + 2 * NUM_ACTIONS {
                return Err(err(
                    i + 1,
                    format!("expected 9 fields, got {}", fields.len()),
                ));
            }
            let state: usize = fields[0]
                .parse()
                .map_err(|e| err(i + 1, format!("bad state index: {e}")))?;
            if state >= num_states {
                return Err(err(i + 1, format!("state {state} out of range")));
            }
            if !listed.insert(state) {
                return Err(err(i + 1, format!("state {state} listed twice")));
            }
            let mut row = table.blank;
            for a in 0..NUM_ACTIONS {
                row.values[a] = fields[1 + a]
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite())
                    .ok_or_else(|| err(i + 1, format!("bad value `{}`", fields[1 + a])))?;
                row.visits[a] = fields[1 + NUM_ACTIONS + a]
                    .parse()
                    .map_err(|e| err(i + 1, format!("bad visit count: {e}")))?;
            }
            *table.stored_mut(state) = row;
        }
        Ok(table)
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;

    fn trained_table() -> QTable {
        let mut q = QTable::new(50);
        q.update(3, 1, 1.5, 4, 0.5, 0.5);
        q.update(4, 2, -0.25, 3, 0.5, 0.5);
        q.update(49, 0, 3.125e-3, 0, 0.1, 0.5);
        q
    }

    #[test]
    fn save_load_round_trip() {
        let q = trained_table();
        let mut buf = Vec::new();
        q.save(&mut buf).expect("write to vec");
        let loaded = QTable::load(buf.as_slice()).expect("parse own output");
        assert_eq!(loaded, q);
    }

    #[test]
    fn unlisted_states_stay_zero() {
        let q = trained_table();
        let mut buf = Vec::new();
        q.save(&mut buf).expect("write");
        let loaded = QTable::load(buf.as_slice()).expect("parse");
        assert_eq!(loaded.value(10, 0), 0.0);
        assert_eq!(loaded.visit_count(10, 0), 0);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(QTable::load(&b"not a table"[..]).is_err());
        assert!(QTable::load(&b"qtable x 0"[..]).is_err());
        assert!(QTable::load(&b"qtable 4 0\n9 0 0 0 0 0 0 0 0"[..]).is_err());
        assert!(QTable::load(&b"qtable 4 0\n1 0 0 0"[..]).is_err());
        assert!(QTable::load(&b""[..]).is_err());
        assert!(QTable::load(&b"qtable 0 0"[..]).is_err());
    }

    #[test]
    fn load_rejects_repeated_states_and_non_finite_values_by_line() {
        let line_of = |text: &str| QTable::load(text.as_bytes()).expect_err(text).line;
        // The error is on the second listing, blank lines counted.
        assert_eq!(
            line_of("qtable 4 2\n1 1 0 0 0 1 0 0 0\n2 0 0 0 0 0 0 0 0\n\n1 9 0 0 0 1 0 0 0\n"),
            5
        );
        // Everything `with_initial` refuses, overflow to infinity included.
        for bad in ["inf", "-inf", "NaN", "infinity", "1e999"] {
            let text = format!("qtable 4 1\n0 0 0 0 0 1 0 0 0\n3 0 0 {bad} 0 0 0 1 0\n");
            assert_eq!(line_of(&text), 3, "{bad}");
        }
    }

    #[test]
    fn a_state_count_above_the_cap_is_refused_before_allocating() {
        for count in [MAX_STATES + 1, usize::MAX] {
            let e = QTable::load(format!("qtable {count} 0\n").as_bytes()).expect_err("above cap");
            assert_eq!(e.line, 1);
            assert!(e.message.contains("65536-state cap"), "{}", e.message);
        }
        let at_cap = QTable::load(format!("qtable {MAX_STATES} 0\n").as_bytes()).expect("at cap");
        assert_eq!(at_cap.num_states(), MAX_STATES);
    }

    #[test]
    fn round_trip_preserves_policy() {
        let q = trained_table();
        let mut buf = Vec::new();
        q.save(&mut buf).expect("write");
        let loaded = QTable::load(buf.as_slice()).expect("parse");
        for s in [3usize, 4, 49] {
            assert_eq!(loaded.best_action(s), q.best_action(s));
        }
        assert_eq!(loaded.updates(), q.updates());
    }
}
