//! Unit-vertex flow kernel: `κ(v, w)` straight on the connectivity graph.
//!
//! Every capacity of Even's network ([`crate::even`]) is 1, so a flow on it
//! is a set of internally vertex-disjoint `v → w` paths and the whole
//! residual network can be read off two `n`-long arrays instead of being
//! stored: for a vertex `x` that carries the unit of some path, `pred[x]`
//! is the vertex the unit enters from and `succ[x]` the one it leaves to.
//! With `x'` the in-copy and `x''` the out-copy of `x`:
//!
//! * `x'` has exactly **one** residual out-arc — the internal arc
//!   `x' → x''` while `x` is idle, the reversed edge arc `x' → pred[x]''`
//!   once it carries a unit;
//! * `x''` has its out-neighbour row minus `succ[x]` (edge arcs without
//!   flow), plus the reversed internal arc `x'' → x'` while `x` carries a
//!   unit.
//!
//! [`VertexFlow`] runs Dinic phases on that implicit network over a CSR
//! copy of the graph's out- and in-neighbour rows:
//!
//! 1. **Two-sided search.** One level-synchronous search grows layers from
//!    both ends: backward from the sink `w'` (layer `B_j` holds the copies
//!    at residual distance `j` *to* the sink, labelled `j`) and forward
//!    from the source `v''` (layer `F_i` at distance `i` from it, marked in
//!    a second array). Each round grows the side with the smaller frontier,
//!    until an arc leaves `F_a` into `B_b`: shortest paths have
//!    `len = a + b + 1` arcs. A walk back over `F_a..F_0` then labels each
//!    forward copy with an arc into a copy labelled `len − i − 1`, so
//!    every copy on a shortest `v'' → w'` path carries its exact distance
//!    to the sink. Copies on no shortest path may stay unlabelled: the DFS
//!    never reads them (step 2), so it routes the paths a full labelling
//!    would give. Both balls stop at the middle; on overlay graphs, where
//!    a sink-rooted search alone labels most of the network before it
//!    reaches `v''`, that is a few hundred copies. The backward step reads
//!    the in-rows: `x''` has one residual in-arc, from `x'` while idle and
//!    from `succ[x]'` otherwise; `x'` has one from `z''` for every
//!    in-neighbour `z ≠ pred[x]`, plus one from `x''` while `x` carries a
//!    unit; the sink has one from `z''` for every in-neighbour with
//!    `succ[z] ≠ w`. The forward step reads the residual out-arcs above.
//! 2. **Unit blocking flow.** The DFS from `v''` steps only along arcs one
//!    nearer the sink, so every copy it reaches lies on a shortest residual
//!    `v'' → w'` path and it never wanders into the part of the network
//!    that cannot reach the sink. Each interior vertex of an augmenting path
//!    has a single residual in- or out-arc and the path saturates it, so
//!    the vertex leaves the level graph and the DFS restarts at the source.
//!
//! The loop ends when `min(cutoff, outdeg(v), indeg(w))` units are routed
//! (the degree bound is the capacity of the cuts around `v''` and `w'`, so
//! a flow meeting it is maximal) or a search finds no path. State is
//! restored in `O(vertices touched)` before returning, so calls are
//! independent and a clone is always a clean evaluator.
//!
//! # Bit rows
//!
//! On dense graphs the row scans read a row as a bitset, one `u64` word per
//! 64 vertices, instead of entry by entry:
//!
//! * the backward step expands `x'` with `in_bits(x) & !out_seen`, where
//!   `out_seen` holds the out-copies labelled so far (the feeder `pred[x]`
//!   among them: `x'` is labelled from `pred[x]''`);
//! * the DFS takes the next candidate out of `x''` from
//!   `out_bits(x) & in_alive[next / 2]`, starting at bit `cur[x]`, and the
//!   walk over the forward layers tests an out-copy with the same words.
//!
//! One `in_alive` bitset per *even* level is enough: every residual arc
//! joins an in-copy to an out-copy and the sink `w'` sits at level 0, so
//! in-copies only ever sit at even distances from the sink (and out-copies
//! at odd ones). Bit `y` of bitset `L / 2` is set while `y'` is labelled
//! `L` and alive; the DFS clears it as `y'` dies.
//!
//! The word scans visit new bits in ascending vertex id, which is the
//! order of the sorted rows, and skip exactly the entries the entry scans
//! skip. So every label, every augmenting path and `pred`/`succ` come out
//! identical under both forms, and so do κ, [`VertexFlow::paths`] and
//! [`VertexFlow::min_cut`].
//!
//! A bit scan costs `⌈n/64⌉` words per row whatever the row's length, so
//! it pays only where rows are long. Bit rows are built when
//! `m ≥ 2·n·⌈n/64⌉`, i.e. when a mean row has at least twice as many
//! entries as a bit row has words; sparser graphs keep the entry scan.
//! The factor 2 is measured: on overlays with 2.2 or more entries per word
//! no flow timing is slower on bit rows, while on a k = 5 overlay of 2,500
//! vertices (1.09 entries per word) the cutoff flow is 16 % slower
//! (`docs/DESIGN.md`, "Where the rule sits").
//! Under that rule the two bit rows per vertex (`16·n·⌈n/64⌉` bytes) cost
//! at most the `8m` bytes of the CSR's own adjacency arrays.
//!
//! # Witnesses
//!
//! Menger's theorem says the maximum flow also carries both certificates of
//! `κ(v, w)`, and the kernel reads them off `pred`/`succ` before restoring:
//!
//! * [`VertexFlow::paths`]: each out-neighbour `y` of `v` with
//!   `pred[y] == v` starts one path, which follows `succ` to `w`.
//! * [`VertexFlow::min_cut`]: a walk of the residual network from `v''`
//!   that treats edge arcs as uncapacitated. Forward edge arcs are always
//!   open, an in-copy leaves by its one residual arc (above), and an
//!   out-copy reaches its own in-copy while it carries a unit. The cut is
//!   every `x` whose `x'` is reached and whose `x''` is not. With edge arcs
//!   unbounded, every minimum cut crosses internal arcs only, and the set
//!   the walk reaches is the source side of the minimum cut closest to `v`,
//!   which is the same for every maximum flow.
//!
//! The explicit [`crate::EvenNetwork`] + [`crate::maxflow`] route stays as
//! the independent oracle; the two are property-tested equal pair by pair,
//! and the witnesses are checked by [`crate::witness`].

use crate::digraph::DiGraph;
use std::ops::Range;
use std::sync::Arc;

/// "No vertex" in `pred`/`succ`, "not labelled" in `level`.
const NONE: u32 = u32::MAX;

/// In-copy `x'` of vertex `x` (same numbering as [`crate::EvenNetwork`]).
#[inline]
fn in_copy(x: u32) -> u32 {
    2 * x
}

/// Out-copy `x''` of vertex `x`.
#[inline]
fn out_copy(x: u32) -> u32 {
    2 * x + 1
}

/// The one residual arc out of in-copy `a = x'`: the internal arc to `x''`
/// while `x` is idle, the reversed edge arc to `pred[x]''` once it carries a
/// unit.
#[inline]
fn sole_exit(pred: &[u32], a: u32) -> u32 {
    match pred[(a >> 1) as usize] {
        NONE => a | 1,
        u => out_copy(u),
    }
}

/// Whether a graph with `n` vertices and `m` edges gets bit rows: when a
/// mean row has at least twice as many entries as a bit row has words.
fn wants_bit_rows(n: usize, m: usize) -> bool {
    m >= 2 * n * n.div_ceil(64)
}

/// Out- and in-neighbour rows in compressed sparse row form, both sorted
/// ascending within a row, and on dense graphs the same rows as bitsets.
#[derive(Debug)]
struct Csr {
    out_off: Vec<usize>,
    out_adj: Vec<u32>,
    in_off: Vec<usize>,
    in_adj: Vec<u32>,
    /// `u64` words per bit row; 0 when the rows are scanned entry by entry.
    words: usize,
    /// Bit `y` of row `x` is set iff `(x, y)` is an edge (`words` per row).
    out_bits: Vec<u64>,
    /// Bit `z` of row `x` is set iff `(z, x)` is an edge (`words` per row).
    in_bits: Vec<u64>,
}

impl Csr {
    fn new(g: &DiGraph, bit_rows: bool) -> Self {
        let n = g.node_count();
        let mut out_off = Vec::with_capacity(n + 1);
        let mut out_adj = Vec::with_capacity(g.edge_count());
        let mut in_off = vec![0usize; n + 1];
        out_off.push(0);
        for x in 0..n as u32 {
            out_adj.extend_from_slice(g.out_neighbors(x));
            out_off.push(out_adj.len());
            in_off[x as usize + 1] = in_off[x as usize] + g.in_degree(x);
        }
        // Tails ascend, so every in-row comes out sorted.
        let mut fill = in_off.clone();
        let mut in_adj = vec![0u32; out_adj.len()];
        for (x, y) in g.edges() {
            in_adj[fill[y as usize]] = x;
            fill[y as usize] += 1;
        }
        let words = if bit_rows { n.div_ceil(64) } else { 0 };
        let mut out_bits = vec![0u64; n * words];
        let mut in_bits = vec![0u64; n * words];
        if words > 0 {
            for (x, y) in g.edges() {
                set_bit(&mut out_bits[x as usize * words..], y);
                set_bit(&mut in_bits[y as usize * words..], x);
            }
        }
        Csr {
            out_off,
            out_adj,
            in_off,
            in_adj,
            words,
            out_bits,
            in_bits,
        }
    }

    #[inline]
    fn out_row(&self, x: u32) -> &[u32] {
        &self.out_adj[self.out_off[x as usize]..self.out_off[x as usize + 1]]
    }

    #[inline]
    fn in_row(&self, x: u32) -> &[u32] {
        &self.in_adj[self.in_off[x as usize]..self.in_off[x as usize + 1]]
    }

    #[inline]
    fn out_bits(&self, x: u32) -> &[u64] {
        &self.out_bits[x as usize * self.words..][..self.words]
    }

    #[inline]
    fn in_bits(&self, x: u32) -> &[u64] {
        &self.in_bits[x as usize * self.words..][..self.words]
    }
}

/// Sets bit `x` of `bits`.
#[inline]
fn set_bit(bits: &mut [u64], x: u32) {
    bits[x as usize / 64] |= 1 << (x % 64);
}

/// Clears bit `x` of `bits`.
#[inline]
fn clear_bit(bits: &mut [u64], x: u32) {
    bits[x as usize / 64] &= !(1 << (x % 64));
}

/// The first vertex `y ≥ from` whose bit is set in both `row` and `alive`.
#[inline]
fn first_common(row: &[u64], alive: &[u64], from: usize) -> Option<u32> {
    let mut i = from / 64;
    let mut word = row.get(i)? & alive[i] & (!0 << (from % 64));
    while word == 0 {
        i += 1;
        word = row.get(i)? & alive[i];
    }
    Some((i * 64) as u32 + word.trailing_zeros())
}

/// Where the `in_alive` bitset of even level `level` sits.
#[inline]
fn alive_words(words: usize, level: u32) -> Range<usize> {
    let start = (level / 2) as usize * words;
    start..start + words
}

/// Drops copy `a` from the level graph: unlabels it and, with bit rows
/// (`BITS`), clears an in-copy's bit in the `in_alive` set of its level.
#[inline]
fn unlabel<const BITS: bool>(level: &mut [u32], in_alive: &mut [u64], words: usize, a: u32) {
    let at = std::mem::replace(&mut level[a as usize], NONE);
    if BITS && a & 1 == 0 && at != NONE {
        clear_bit(&mut in_alive[alive_words(words, at)], a >> 1);
    }
}

/// Reusable `κ(v, w)` evaluator for one graph.
///
/// Cloning shares the CSR rows behind an [`Arc`] and duplicates only the
/// `O(n)` scratch arrays — how a parallel sweep hands each worker its own
/// evaluator.
///
/// # Example
///
/// ```
/// use flowgraph::generators::paper_figure1;
/// use flowgraph::vertex_flow::VertexFlow;
///
/// // Figure 1 of the paper: three edge-disjoint a → i paths, but all of
/// // them pass through e.
/// let mut kernel = VertexFlow::new(&paper_figure1());
/// assert_eq!(kernel.connectivity(0, 8, None), Some(1));
/// // Adjacent pairs have no defined vertex connectivity.
/// assert_eq!(kernel.connectivity(0, 1, None), None);
/// ```
#[derive(Clone, Debug)]
pub struct VertexFlow {
    csr: Arc<Csr>,
    /// `pred[x]`: where the unit through `x` enters from (`NONE`: idle).
    /// Never set for the source; set for every out-neighbour of the source
    /// that an edge `(v, x)` feeds.
    pred: Vec<u32>,
    /// `succ[x]`: where the unit through `x` leaves to. Never set for the
    /// source or the sink.
    succ: Vec<u32>,
    /// Vertices whose `pred`/`succ` were written (duplicates allowed).
    touched: Vec<u32>,
    /// Residual distance to the sink in the current phase, indexed by copy
    /// id; the DFS clears entries as copies die.
    level: Vec<u32>,
    /// Current-arc pointer per vertex (out-copies only): an index into the
    /// out-row, or with bit rows the vertex id the bit scan resumes at.
    cur: Vec<usize>,
    /// With bit rows, the out-copies labelled this phase (bit `z` for
    /// `z''`), cleared as each search starts; empty otherwise.
    out_seen: Vec<u64>,
    /// With bit rows, one bitset per even level `L`: bit `y` of bitset
    /// `L / 2` is set while `y'` is labelled `L` and alive. Grows to the
    /// deepest level any phase reaches; empty without bit rows.
    in_alive: Vec<u64>,
    /// Labelled copies in the order they were labelled: the backward
    /// search's queue, then the list of copies to unlabel.
    queue: Vec<u32>,
    /// Residual distance from the source, indexed by copy id, for the
    /// copies the forward search has marked this phase (`NONE`: unmarked).
    near: Vec<u32>,
    /// The copies marked in `near`, layer by layer.
    near_queue: Vec<u32>,
    /// The DFS's partial path, as copy ids starting at the source.
    path: Vec<u32>,
}

impl VertexFlow {
    /// Builds the kernel for `g`: one `O(n + m)` pass to lay out the rows,
    /// plus bit rows when `g` is dense enough for them (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `g` has more than `u32::MAX / 2` vertices (copy ids must
    /// fit a `u32`).
    pub fn new(g: &DiGraph) -> Self {
        Self::with_row_form(g, wants_bit_rows(g.node_count(), g.edge_count()))
    }

    /// [`Self::new`] with the row form chosen by the caller; tests use it
    /// to run one graph under both forms.
    fn with_row_form(g: &DiGraph, bit_rows: bool) -> Self {
        let n = g.node_count();
        assert!(
            n <= (u32::MAX / 2) as usize,
            "graph too large for u32 copy ids"
        );
        let csr = Csr::new(g, bit_rows);
        let words = csr.words;
        VertexFlow {
            csr: Arc::new(csr),
            pred: vec![NONE; n],
            succ: vec![NONE; n],
            touched: Vec::new(),
            level: vec![NONE; 2 * n],
            cur: vec![0; n],
            out_seen: vec![0; words],
            in_alive: vec![0; words],
            queue: Vec::new(),
            near: vec![NONE; 2 * n],
            near_queue: Vec::with_capacity(2 * n),
            path: Vec::new(),
        }
    }

    /// Number of vertices of the graph this kernel was built for.
    pub fn node_count(&self) -> usize {
        self.pred.len()
    }

    /// `κ(v, w)`: the number of internally vertex-disjoint `v → w` paths,
    /// or `None` when `v == w` or `(v, w)` is an edge.
    ///
    /// With `cutoff = Some(c)` the search stops after `c` paths, so the
    /// result is `min(c, κ(v, w))` — a certified lower bound that is `>= c`
    /// whenever `κ(v, w)` is. Without a cutoff the value is exact.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `w` is out of range.
    pub fn connectivity(&mut self, v: u32, w: u32, cutoff: Option<u64>) -> Option<u64> {
        let flow = self.route(v, w, cutoff)?;
        self.restore();
        Some(flow)
    }

    /// A minimum `v`-`w` vertex cut: the vertices an attacker must remove to
    /// sever every `v → w` path, ascending, `κ(v, w)` of them. `None` when
    /// `v == w` or `(v, w)` is an edge.
    ///
    /// It is the cut closest to `v`, which is the same for every maximum
    /// flow, so the answer depends on the graph and the pair only.
    ///
    /// # Example
    ///
    /// ```
    /// use flowgraph::generators::paper_figure1;
    /// use flowgraph::vertex_flow::VertexFlow;
    ///
    /// let mut kernel = VertexFlow::new(&paper_figure1());
    /// // Vertex e is the articulation point between a and i.
    /// assert_eq!(kernel.min_cut(0, 8), Some(vec![4]));
    /// assert_eq!(kernel.min_cut(0, 1), None);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v` or `w` is out of range.
    pub fn min_cut(&mut self, v: u32, w: u32) -> Option<Vec<u32>> {
        self.route(v, w, None)?;
        let VertexFlow {
            csr,
            pred,
            succ,
            level,
            queue,
            ..
        } = self;
        // Residual walk from v'' with edge arcs uncapacitated, as if the
        // split network gave edges infinite capacity: then every minimum
        // cut crosses internal arcs only.
        let mut reach = |b: u32, queue: &mut Vec<u32>| {
            if level[b as usize] == NONE {
                level[b as usize] = 0;
                queue.push(b);
            }
        };
        queue.clear();
        reach(out_copy(v), queue);
        let mut head = 0;
        while let Some(&a) = queue.get(head) {
            head += 1;
            if a & 1 == 0 {
                reach(sole_exit(pred, a), queue);
                continue;
            }
            let x = a >> 1;
            for &y in csr.out_row(x) {
                reach(in_copy(y), queue);
            }
            if succ[x as usize] != NONE {
                reach(a & !1, queue);
            }
        }
        let mut cut: Vec<u32> = queue
            .iter()
            .filter(|&&a| a & 1 == 0 && level[(a | 1) as usize] == NONE)
            .map(|&a| a >> 1)
            .collect();
        cut.sort_unstable();
        for &a in queue.iter() {
            level[a as usize] = NONE;
        }
        self.restore();
        Some(cut)
    }

    /// A maximum set of internally vertex-disjoint `v → w` paths (Menger's
    /// witnesses), `κ(v, w)` of them, each listed from `v` to `w` and
    /// ordered by first hop. `None` when `v == w` or `(v, w)` is an edge.
    ///
    /// # Example
    ///
    /// ```
    /// use flowgraph::DiGraph;
    /// use flowgraph::vertex_flow::VertexFlow;
    ///
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
    /// let paths = VertexFlow::new(&g).paths(0, 3).expect("non-adjacent");
    /// assert_eq!(paths, vec![vec![0, 1, 3], vec![0, 2, 3]]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `v` or `w` is out of range.
    pub fn paths(&mut self, v: u32, w: u32) -> Option<Vec<Vec<u32>>> {
        self.route(v, w, None)?;
        let paths = self
            .csr
            .out_row(v)
            .iter()
            .filter(|&&y| self.pred[y as usize] == v)
            .map(|&y| {
                let (mut path, mut x) = (vec![v, y], y);
                while x != w {
                    x = self.succ[x as usize];
                    path.push(x);
                }
                path
            })
            .collect();
        self.restore();
        Some(paths)
    }

    /// Routes a maximum flow (at most `cutoff` units) from `v''` to `w'` and
    /// leaves it in `pred`/`succ` for the caller to read; [`Self::restore`]
    /// must follow. `None` for equal or adjacent pairs, with nothing routed.
    fn route(&mut self, v: u32, w: u32, cutoff: Option<u64>) -> Option<u64> {
        let n = self.node_count();
        assert!((v as usize) < n && (w as usize) < n, "vertex out of range");
        if v == w || self.csr.out_row(v).binary_search(&w).is_ok() {
            return None;
        }
        // Every path leaves v over its own edge and enters w over its own.
        let bound = self.csr.out_row(v).len().min(self.csr.in_row(w).len()) as u64;
        let stop = cutoff.map_or(bound, |c| c.min(bound));
        // One copy of the phase loop per row form, so the entry scan
        // carries no bit-row branch.
        Some(if self.csr.words > 0 {
            self.phases::<true>(v, w, stop)
        } else {
            self.phases::<false>(v, w, stop)
        })
    }

    /// Dinic phases until `stop` units are routed or a search finds no
    /// path; `BITS` says whether the CSR has bit rows.
    fn phases<const BITS: bool>(&mut self, v: u32, w: u32, stop: u64) -> u64 {
        let mut flow = 0;
        while flow < stop {
            let reached = self.label_level_graph::<BITS>(v, w);
            if reached {
                let sent = self.blocking_flow::<BITS>(v, w, stop - flow);
                debug_assert!(sent > 0, "a phase that reached the source routed nothing");
                flow += sent;
            }
            self.clear_phase::<BITS>();
            if !reached {
                break;
            }
        }
        flow
    }

    /// Clears what a phase's search left: every label and forward mark, in
    /// `O(copies labelled or marked)`.
    fn clear_phase<const BITS: bool>(&mut self) {
        for &a in &self.queue {
            unlabel::<BITS>(&mut self.level, &mut self.in_alive, self.csr.words, a);
        }
        for &c in &self.near_queue {
            self.near[c as usize] = NONE;
        }
    }

    /// Clears the flow [`Self::route`] left behind, in `O(vertices touched)`.
    fn restore(&mut self) {
        for &x in &self.touched {
            self.pred[x as usize] = NONE;
            self.succ[x as usize] = NONE;
        }
        self.touched.clear();
    }

    /// Labels the phase's level graph by one level-synchronous search from
    /// both ends and returns whether `v''` is labelled, i.e. whether a
    /// residual `v'' → w'` path exists.
    ///
    /// The backward layers `B_j` (residual distance `j` to `w'`) are
    /// labelled `j` in `level`; the forward layers `F_i` (distance `i` from
    /// `v''`) are marked `i` in `near`. Each round grows one side by a
    /// layer, until an arc leaves `F_a` into `B_b`: shortest paths then
    /// have `len = a + b + 1` arcs, and a walk back over `F_a..F_0` labels
    /// the forward copies that lie on one with `len - i`. Resets `cur` of
    /// each labelled out-copy and leaves every labelled copy in `queue`,
    /// every marked one in `near_queue`.
    fn label_level_graph<const BITS: bool>(&mut self, v: u32, w: u32) -> bool {
        let VertexFlow {
            csr,
            pred,
            succ,
            level,
            cur,
            out_seen,
            in_alive,
            queue,
            near,
            near_queue,
            ..
        } = self;
        let words = csr.words;
        // Both return whether the copy was new.
        let mut label_out =
            |z: u32, at: u32, level: &mut [u32], out_seen: &mut [u64], queue: &mut Vec<u32>| {
                let b = out_copy(z);
                let new = level[b as usize] == NONE;
                if new {
                    level[b as usize] = at;
                    cur[z as usize] = 0;
                    if BITS {
                        set_bit(out_seen, z);
                    }
                    queue.push(b);
                }
                new
            };
        // In-copies sit at even levels only (module docs), each in the
        // `in_alive` bitset of its level.
        let label_in =
            |a: u32, at: u32, level: &mut [u32], in_alive: &mut Vec<u64>, queue: &mut Vec<u32>| {
                let new = level[a as usize] == NONE;
                if new {
                    level[a as usize] = at;
                    queue.push(a);
                    if BITS {
                        let bits = alive_words(words, at);
                        if in_alive.len() < bits.end {
                            in_alive.resize(bits.end, 0);
                        }
                        set_bit(&mut in_alive[bits], a >> 1);
                    }
                }
                new
            };
        queue.clear();
        near_queue.clear();
        out_seen.fill(0);
        label_in(in_copy(w), 0, level, in_alive, queue);
        // B_1, into the sink: edges (z, w) without flow, i.e. succ[z] != w.
        // The source is not among them — the pair is non-adjacent.
        for &z in csr.in_row(w) {
            if succ[z as usize] != w {
                label_out(z, 1, level, out_seen, queue);
            }
        }
        near[out_copy(v) as usize] = 0;
        near_queue.push(out_copy(v));
        // F_0..F_a and B_0..B_b are complete and disjoint, so shortest
        // paths are longer than a + b arcs; the last layers start at
        // `f_head` and `b_head`.
        let (mut a, mut b, mut f_head, mut b_head) = (0, 1, 0, 1);
        let len = 'search: loop {
            // Every arc joins an in-copy and an out-copy, so an arc from F_a
            // into B_b needs a and b of one parity. A side one layer ahead
            // of that takes its cheap step first: an in-copy has one residual
            // out-arc, an out-copy one residual in-arc.
            let forward = if (a ^ b) & 1 == 1 {
                a & 1 == 1
            } else {
                near_queue.len() - f_head <= queue.len() - b_head
            };
            if forward {
                // An arc from F_a into B lands in B_b: a shorter path would
                // have met before.
                let end = near_queue.len();
                // Whether d is in B; else marks it for F_{a+1}.
                let met = |d: u32, near: &mut [u32], near_queue: &mut Vec<u32>| {
                    if level[d as usize] != NONE {
                        return true;
                    }
                    if near[d as usize] == NONE {
                        near[d as usize] = a + 1;
                        near_queue.push(d);
                    }
                    false
                };
                for i in f_head..end {
                    let c = near_queue[i];
                    if c & 1 == 0 {
                        if met(sole_exit(pred, c), near, near_queue) {
                            break 'search a + b + 1;
                        }
                        continue;
                    }
                    // Edge arcs without flow, then the reversed internal arc
                    // while x carries a unit. The source's used edges are
                    // those with pred[y] == v. Any other x'' that carries a
                    // unit has one residual in-arc, from succ[x]', so that
                    // copy is marked already and the used edge needs no test.
                    let x = c >> 1;
                    for &y in csr.out_row(x) {
                        if (x != v || pred[y as usize] != v) && met(in_copy(y), near, near_queue) {
                            break 'search a + b + 1;
                        }
                    }
                    if succ[x as usize] != NONE && met(c & !1, near, near_queue) {
                        break 'search a + b + 1;
                    }
                }
                if near_queue.len() == end {
                    return false;
                }
                f_head = end;
                a += 1;
            } else {
                // Labels z'' for B_{b+1}; whether it was new and is in F
                // (then in F_a).
                let (end, at) = (queue.len(), b + 1);
                let mut met =
                    |z: u32, level: &mut [u32], out_seen: &mut [u64], queue: &mut Vec<u32>| {
                        label_out(z, at, level, out_seen, queue)
                            && near[out_copy(z) as usize] != NONE
                    };
                for i in b_head..end {
                    let c = queue[i];
                    let x = c >> 1;
                    if c & 1 == 1 {
                        // One residual in-arc: from x' while idle, else the
                        // reverse of the edge its unit leaves over.
                        let d = match succ[x as usize] {
                            NONE => c & !1,
                            y => in_copy(y),
                        };
                        if label_in(d, at, level, in_alive, queue) && near[d as usize] != NONE {
                            break 'search a + b + 1;
                        }
                        continue;
                    }
                    // Edge arcs from every in-neighbour but the one feeding
                    // x's unit, and the reversed internal arc while x carries
                    // a unit. The feeder needs no test: pred[x]'' is the one
                    // residual successor of x', so x' was labelled from it
                    // and it is labelled already (pred[x] == v cannot occur:
                    // v'' is in F_0, so B would have met F there).
                    if BITS {
                        // Only the in-neighbours whose out-copy is still
                        // unlabelled.
                        for (k, &edges) in csr.in_bits(x).iter().enumerate() {
                            let mut fresh = edges & !out_seen[k];
                            while fresh != 0 {
                                let z = (k * 64) as u32 + fresh.trailing_zeros();
                                fresh &= fresh - 1;
                                if met(z, level, out_seen, queue) {
                                    break 'search a + b + 1;
                                }
                            }
                        }
                    } else {
                        for &z in csr.in_row(x) {
                            if met(z, level, out_seen, queue) {
                                break 'search a + b + 1;
                            }
                        }
                    }
                    if pred[x as usize] != NONE && met(x, level, out_seen, queue) {
                        break 'search a + b + 1;
                    }
                }
                if queue.len() == end {
                    return false;
                }
                b_head = end;
                b += 1;
            }
        };
        // Walk the forward layers back from F_a (a partial F_{a+1} is
        // skipped): a copy at distance i from v'' lies on a shortest path
        // iff it has a residual arc into a copy labelled len - i - 1, which
        // is the DFS's own step test, and every such copy is labelled by
        // then. As in the DFS, a used edge needs no mask: its head leaves
        // only back to x'', so it is labelled farther from the sink than
        // x'' or not at all (and no x'' whose unit enters w' is in F).
        for &c in near_queue.iter().rev() {
            let i = near[c as usize];
            if i > a {
                continue;
            }
            let (at, x) = (len - i, c >> 1);
            let next = at - 1;
            if c & 1 == 0 {
                if level[sole_exit(pred, c) as usize] == next {
                    label_in(c, at, level, in_alive, queue);
                }
                continue;
            }
            let on_path = if BITS {
                first_common(csr.out_bits(x), &in_alive[alive_words(words, next)], 0).is_some()
            } else {
                csr.out_row(x)
                    .iter()
                    .any(|&y| level[in_copy(y) as usize] == next)
            };
            if on_path || (succ[x as usize] != NONE && level[(c & !1) as usize] == next) {
                label_out(x, at, level, out_seen, queue);
            }
        }
        true
    }

    /// Routes up to `budget` units along arcs that step one nearer the sink
    /// and returns how many it routed (at least one after a search that
    /// labelled the source).
    fn blocking_flow<const BITS: bool>(&mut self, v: u32, w: u32, budget: u64) -> u64 {
        let VertexFlow {
            csr,
            pred,
            succ,
            touched,
            level,
            cur,
            in_alive,
            path,
            ..
        } = self;
        let words = csr.words;
        let (s, t) = (out_copy(v), in_copy(w));
        let mut sent = 0;
        path.clear();
        path.push(s);
        while let Some(&a) = path.last() {
            if a == t {
                for arc in path.windows(2) {
                    let (x, y) = (arc[0] >> 1, arc[1] >> 1);
                    if arc[0] & 1 == 0 {
                        // Out of an in-copy (internal arc, or a reversed
                        // edge): the edge arcs on either side record it.
                        continue;
                    }
                    if x == y {
                        // Reversed internal arc: x is rerouted around.
                        pred[x as usize] = NONE;
                        succ[x as usize] = NONE;
                        continue;
                    }
                    if x != v {
                        succ[x as usize] = y;
                        touched.push(x);
                    }
                    if y != w {
                        pred[y as usize] = x;
                        touched.push(y);
                    }
                }
                // The path saturated the single residual in- or out-arc of
                // each interior copy: none can carry a second path this
                // phase.
                for &b in &path[1..path.len() - 1] {
                    unlabel::<BITS>(level, in_alive, words, b);
                }
                sent += 1;
                if sent == budget {
                    break;
                }
                path.truncate(1);
                continue;
            }
            let x = a >> 1;
            // `a` is not the sink, so it sits at distance 1 or more.
            let next = level[a as usize] - 1;
            let step = if a & 1 == 0 {
                let b = sole_exit(pred, a);
                (level[b as usize] == next).then_some(b)
            } else {
                // Every edge onto a copy one nearer the sink is residual. A
                // used edge's head (succ[x]', or y' with pred[y] == v out of
                // the source) leaves only back to x'', so it is labelled one
                // farther from the sink than x'' or not at all; and x'' with
                // succ[x] == w has no arc into the sink, so it sits at
                // distance 3 or more.
                let at = &mut cur[x as usize];
                let found = if BITS {
                    let alive = &in_alive[alive_words(words, next)];
                    let y = first_common(csr.out_bits(x), alive, *at);
                    debug_assert!(
                        y.is_none_or(|y| level[in_copy(y) as usize] == next),
                        "in_alive out of step with level"
                    );
                    *at = y.map_or(words * 64, |y| y as usize);
                    y
                } else {
                    let row = csr.out_row(x);
                    while *at < row.len() && level[in_copy(row[*at]) as usize] != next {
                        *at += 1;
                    }
                    row.get(*at).copied()
                };
                match found {
                    Some(y) => Some(in_copy(y)),
                    None => (succ[x as usize] != NONE && level[(a & !1) as usize] == next)
                        .then_some(a & !1),
                }
            };
            match step {
                Some(b) => path.push(b),
                None => {
                    // Dead end: drop it from the level graph; the parent's
                    // scan skips it from now on.
                    unlabel::<BITS>(level, in_alive, words, a);
                    path.pop();
                }
            }
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{bidirected_cycle, complete, cycle, gnp, paper_figure1, random_k_out};
    use crate::witness::{cut_disconnects, validate_disjoint_paths};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn assert_clean(kernel: &VertexFlow) {
        assert!(kernel.pred.iter().all(|&p| p == NONE));
        assert!(kernel.succ.iter().all(|&s| s == NONE));
        assert!(kernel.level.iter().all(|&l| l == NONE));
        assert!(kernel.touched.is_empty());
        assert!(kernel.in_alive.iter().all(|&word| word == 0));
        assert!(kernel.near.iter().all(|&d| d == NONE));
    }

    /// The vertices whose bits are set in `bits`, ascending.
    fn members(bits: &[u64]) -> Vec<u32> {
        (0..bits.len() as u32 * 64)
            .filter(|&x| bits[x as usize / 64] >> (x % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn csr_rows_mirror_the_graph() {
        let mut rng = SmallRng::seed_from_u64(70);
        for g in [paper_figure1(), gnp(70, 0.3, &mut rng)] {
            let csr = Csr::new(&g, true);
            assert_eq!(csr.words, g.node_count().div_ceil(64));
            let reverse = g.reverse();
            for x in 0..g.node_count() as u32 {
                assert_eq!(csr.out_row(x), g.out_neighbors(x));
                assert_eq!(csr.in_row(x), reverse.out_neighbors(x));
                assert_eq!(members(csr.out_bits(x)), csr.out_row(x));
                assert_eq!(members(csr.in_bits(x)), csr.in_row(x));
            }
            let entries = Csr::new(&g, false);
            assert_eq!(entries.words, 0);
            assert!(entries.out_bits.is_empty() && entries.in_bits.is_empty());
        }
    }

    #[test]
    fn row_form_follows_the_density_rule() {
        // m ≥ 2·n·⌈n/64⌉: a ring of 200 has m = 400 < 1,600, the dense
        // gnp about 2,480 ≥ 120, and the rule's edge sits at n = 64.
        let form = |g: &DiGraph| VertexFlow::new(g).csr.words > 0;
        assert!(!form(&bidirected_cycle(200)));
        assert!(form(&gnp(60, 0.7, &mut SmallRng::seed_from_u64(60))));
        assert!(form(&bidirected_cycle(64)));
        assert!(!form(&bidirected_cycle(65)));
        assert!(!form(&cycle(40)));
    }

    #[test]
    fn bit_rows_route_like_entry_rows() {
        // Sparse and deep graphs the density rule leaves on the entry
        // scan, forced onto bit rows, and dense ones forced the other way:
        // values, cutoffs, paths and cuts agree pair by pair.
        let mut rng = SmallRng::seed_from_u64(41);
        let graphs = [
            paper_figure1(),
            bidirected_cycle(70),
            cycle(9),
            gnp(70, 0.04, &mut rng),
            gnp(30, 0.15, &mut rng),
            gnp(66, 0.5, &mut rng),
            random_k_out(80, 3, &mut rng),
        ];
        for g in &graphs {
            let n = g.node_count() as u32;
            let mut bits = VertexFlow::with_row_form(g, true);
            let mut entries = VertexFlow::with_row_form(g, false);
            for v in 0..n {
                for w in 0..n {
                    for cutoff in [None, Some(1), Some(3)] {
                        assert_eq!(
                            bits.connectivity(v, w, cutoff),
                            entries.connectivity(v, w, cutoff),
                            "({v}, {w}) cutoff {cutoff:?}"
                        );
                    }
                    assert_eq!(bits.paths(v, w), entries.paths(v, w), "({v}, {w})");
                    assert_eq!(bits.min_cut(v, w), entries.min_cut(v, w), "({v}, {w})");
                }
            }
            assert_clean(&bits);
            assert_clean(&entries);
        }
    }

    /// Two sparse random blocks of 16 vertices that reach each other only
    /// through vertices 16 and 17 one way, and over edges `x + 18 → x` the
    /// other: every pair from the first block into the second has κ ≤ 2.
    fn planted_cut(rng: &mut SmallRng) -> DiGraph {
        let (first, second) = (gnp(16, 0.2, rng), gnp(16, 0.2, rng));
        let mut edges: Vec<(u32, u32)> = first.edges().collect();
        edges.extend(second.edges().map(|(x, y)| (x + 18, y + 18)));
        for x in 0..16 {
            edges.extend([(x, 16 + x % 2), (16 + x % 2, x + 18), (x + 18, x)]);
        }
        DiGraph::from_edges(34, edges)
    }

    /// Residual distances of every copy from `v''` and to `w'` under the
    /// flow in `pred`/`succ`, by plain BFS over Even's network written out
    /// arc by arc.
    fn residual_distances(g: &DiGraph, kernel: &VertexFlow, v: u32, w: u32) -> [Vec<u32>; 2] {
        let copies = 2 * g.node_count();
        let (pred, succ) = (&kernel.pred, &kernel.succ);
        let mut ahead = vec![Vec::new(); copies];
        let mut behind = vec![Vec::new(); copies];
        let mut arc = |tail: u32, head: u32| {
            ahead[tail as usize].push(head);
            behind[head as usize].push(tail);
        };
        for (x, y) in g.edges() {
            let carries = if x == v {
                pred[y as usize] == v
            } else {
                succ[x as usize] == y
            };
            if carries {
                arc(in_copy(y), out_copy(x));
            } else {
                arc(out_copy(x), in_copy(y));
            }
        }
        for x in 0..g.node_count() as u32 {
            if succ[x as usize] == NONE {
                arc(in_copy(x), out_copy(x));
            } else {
                arc(out_copy(x), in_copy(x));
            }
        }
        let bfs = |from: u32, arcs: &[Vec<u32>]| {
            let mut dist = vec![NONE; copies];
            dist[from as usize] = 0;
            let mut queue = std::collections::VecDeque::from([from]);
            while let Some(a) = queue.pop_front() {
                for &b in &arcs[a as usize] {
                    if dist[b as usize] == NONE {
                        dist[b as usize] = dist[a as usize] + 1;
                        queue.push_back(b);
                    }
                }
            }
            dist
        };
        [bfs(out_copy(v), &ahead), bfs(in_copy(w), &behind)]
    }

    #[test]
    fn search_labels_exactly_the_level_graph() {
        // Every mid-flow state of every pair, under both row forms: each
        // label is the copy's residual distance to the sink, every copy on
        // a shortest v'' → w' path is labelled, v'' is labelled iff a
        // residual path exists, and each forward mark is the copy's
        // residual distance from v''.
        let mut rng = SmallRng::seed_from_u64(42);
        let graphs = [
            paper_figure1(),
            bidirected_cycle(12),
            gnp(40, 0.3, &mut rng),
            gnp(30, 0.08, &mut rng),
            gnp(70, 0.04, &mut rng),
            random_k_out(40, 4, &mut rng),
            planted_cut(&mut rng),
        ];
        for g in &graphs {
            let n = g.node_count() as u32;
            for bit_rows in [true, false] {
                let mut kernel = VertexFlow::with_row_form(g, bit_rows);
                for v in 0..n {
                    for w in 0..n {
                        let Some(kappa) = kernel.connectivity(v, w, None) else {
                            continue;
                        };
                        for c in 0..=kappa {
                            assert_eq!(kernel.route(v, w, Some(c)), Some(c));
                            let [from_source, to_sink] = residual_distances(g, &kernel, v, w);
                            let reached = if bit_rows {
                                kernel.label_level_graph::<true>(v, w)
                            } else {
                                kernel.label_level_graph::<false>(v, w)
                            };
                            let len = to_sink[out_copy(v) as usize];
                            let at = format!("({v}, {w}) after {c} units, bit rows {bit_rows}");
                            assert_eq!(reached, len != NONE, "{at}");
                            assert_eq!(kernel.level[out_copy(v) as usize], len, "{at}");
                            for a in 0..2 * n as usize {
                                let (ds, dt) = (from_source[a], to_sink[a]);
                                let label = kernel.level[a];
                                assert!(label == NONE || label == dt, "{at}: copy {a}");
                                if reached && ds != NONE && dt != NONE && ds + dt == len {
                                    assert_eq!(label, dt, "{at}: copy {a} is on a shortest path");
                                }
                                let mark = kernel.near[a];
                                assert!(mark == NONE || mark == ds, "{at}: copy {a} marked");
                            }
                            if bit_rows {
                                kernel.clear_phase::<true>();
                            } else {
                                kernel.clear_phase::<false>();
                            }
                            kernel.restore();
                        }
                    }
                }
                assert_clean(&kernel);
            }
        }
    }

    #[test]
    fn known_values() {
        let mut ring = VertexFlow::new(&bidirected_cycle(9));
        assert_eq!(ring.connectivity(0, 4, None), Some(2));
        let mut one_way = VertexFlow::new(&cycle(6));
        assert_eq!(one_way.connectivity(0, 3, None), Some(1));
        let mut full = VertexFlow::new(&complete(5));
        assert_eq!(full.connectivity(0, 3, None), None);
        assert_eq!(full.connectivity(2, 2, None), None);
    }

    #[test]
    fn rerouting_needs_a_second_phase() {
        // The shortest path 0→1→4→6 blocks both longer ones; the second
        // phase must push back through 1 → 4 to reach the value 2.
        let g = DiGraph::from_edges(
            7,
            [
                (0, 1),
                (1, 4),
                (4, 6),
                (0, 2),
                (2, 3),
                (3, 4),
                (1, 5),
                (5, 6),
            ],
        );
        let mut kernel = VertexFlow::new(&g);
        assert_eq!(kernel.connectivity(0, 6, None), Some(2));
        assert_clean(&kernel);
    }

    #[test]
    fn unreachable_and_degree_zero_pairs_are_zero() {
        // Vertex i (8) of Figure 1 has no out-edges; vertex a (0) no
        // in-edges.
        let mut kernel = VertexFlow::new(&paper_figure1());
        assert_eq!(kernel.connectivity(8, 0, None), Some(0));
        assert_eq!(kernel.connectivity(8, 0, Some(3)), Some(0));
        assert_eq!(kernel.connectivity(4, 0, None), Some(0));
        assert_clean(&kernel);
    }

    #[test]
    fn cutoff_stops_at_the_requested_count() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = gnp(30, 0.4, &mut rng);
        let mut kernel = VertexFlow::new(&g);
        for v in 0..30u32 {
            for w in 0..30u32 {
                let Some(exact) = kernel.connectivity(v, w, None) else {
                    continue;
                };
                for c in [0u64, 1, 3, 100] {
                    assert_eq!(kernel.connectivity(v, w, Some(c)), Some(exact.min(c)));
                }
            }
        }
        assert_clean(&kernel);
    }

    #[test]
    fn figure1_cut_is_vertex_e() {
        let g = paper_figure1();
        let mut kernel = VertexFlow::new(&g);
        let cut = kernel.min_cut(0, 8).expect("non-adjacent pair");
        assert_eq!(cut, vec![4]);
        assert!(cut_disconnects(&g, 0, 8, &cut));
        assert_clean(&kernel);
    }

    #[test]
    fn adjacent_pair_has_no_cut() {
        let mut kernel = VertexFlow::new(&DiGraph::from_edges(2, [(0, 1)]));
        assert!(kernel.min_cut(0, 1).is_none());
        assert!(kernel.min_cut(0, 0).is_none());
    }

    #[test]
    fn complete_graph_pairs_are_all_adjacent() {
        let mut kernel = VertexFlow::new(&complete(4));
        for v in 0..4 {
            for w in 0..4 {
                assert!(kernel.min_cut(v, w).is_none());
                assert!(kernel.paths(v, w).is_none());
            }
        }
    }

    #[test]
    fn two_disjoint_paths_cut_has_two_vertices() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        let cut = VertexFlow::new(&g).min_cut(0, 3).expect("non-adjacent");
        assert_eq!(cut, vec![1, 2]);
        assert!(cut_disconnects(&g, 0, 3, &cut));
    }

    #[test]
    fn disconnected_pair_has_empty_cut() {
        let g = DiGraph::from_edges(3, [(1, 0)]);
        let mut kernel = VertexFlow::new(&g);
        assert_eq!(kernel.min_cut(0, 2), Some(vec![]));
        assert!(cut_disconnects(&g, 0, 2, &[]));
        assert_clean(&kernel);
    }

    #[test]
    fn no_paths_when_disconnected() {
        let g = DiGraph::from_edges(3, [(1, 0)]);
        let mut kernel = VertexFlow::new(&g);
        assert_eq!(kernel.paths(0, 2), Some(vec![]));
        assert_clean(&kernel);
    }

    #[test]
    fn cut_is_the_one_closest_to_the_source() {
        // Two lanes 0 → 1 → 3 → 5 and 0 → 2 → 4 → 5: {1, 2}, {1, 4},
        // {3, 2} and {3, 4} are all minimum cuts, and {1, 2} is the one
        // nearest 0.
        let lanes = DiGraph::from_edges(6, [(0, 1), (1, 3), (3, 5), (0, 2), (2, 4), (4, 5)]);
        assert_eq!(VertexFlow::new(&lanes).min_cut(0, 5), Some(vec![1, 2]));
        let chain = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(VertexFlow::new(&chain).min_cut(0, 3), Some(vec![1]));
    }

    #[test]
    fn figure1_single_path_through_e() {
        let g = paper_figure1();
        let mut kernel = VertexFlow::new(&g);
        let paths = kernel.paths(0, 8).expect("non-adjacent");
        assert_eq!(paths.len(), 1);
        assert!(paths[0].contains(&4), "every a->i path passes e");
        validate_disjoint_paths(&g, 0, 8, &paths).expect("valid");
        assert_clean(&kernel);
    }

    #[test]
    fn diamond_two_paths() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        let paths = VertexFlow::new(&g).paths(0, 3).expect("non-adjacent");
        assert_eq!(paths, vec![vec![0, 1, 3], vec![0, 2, 3]]);
        validate_disjoint_paths(&g, 0, 3, &paths).expect("valid");
    }

    #[test]
    fn adjacent_pair_returns_none() {
        let mut kernel = VertexFlow::new(&DiGraph::from_edges(2, [(0, 1)]));
        assert!(kernel.paths(0, 1).is_none());
        assert!(kernel.paths(1, 1).is_none());
    }

    #[test]
    fn longer_graph_three_paths() {
        // Three internally disjoint paths of different lengths.
        let g = DiGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 7),
                (0, 2),
                (2, 3),
                (3, 7),
                (0, 4),
                (4, 5),
                (5, 6),
                (6, 7),
            ],
        );
        let paths = VertexFlow::new(&g).paths(0, 7).expect("non-adjacent");
        assert_eq!(paths.len(), 3);
        validate_disjoint_paths(&g, 0, 7, &paths).expect("valid");
    }

    #[test]
    fn rerouted_flow_reads_back_as_paths() {
        // The second phase reroutes around 1 → 4 (see above); the paths and
        // the cut must come from the final flow, not the first phase.
        let g = DiGraph::from_edges(
            7,
            [
                (0, 1),
                (1, 4),
                (4, 6),
                (0, 2),
                (2, 3),
                (3, 4),
                (1, 5),
                (5, 6),
            ],
        );
        let mut kernel = VertexFlow::new(&g);
        let paths = kernel.paths(0, 6).expect("non-adjacent");
        assert_eq!(paths, vec![vec![0, 1, 5, 6], vec![0, 2, 3, 4, 6]]);
        validate_disjoint_paths(&g, 0, 6, &paths).expect("valid");
        assert_eq!(kernel.min_cut(0, 6), Some(vec![1, 2]));
        assert_clean(&kernel);
    }

    /// FNV-1a over the little-endian bytes of `words`, continuing `hash`.
    fn fnv1a(mut hash: u64, words: impl IntoIterator<Item = u32>) -> u64 {
        for word in words {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// Folds `paths` and `min_cut` of every ordered pair of `g`, in pair
    /// order, into one FNV-1a digest, with bit rows or entry rows. Each
    /// path and cut is prefixed by its length; equal and adjacent pairs
    /// fold a `u32::MAX` marker.
    fn witness_digest(g: &DiGraph, bit_rows: bool) -> u64 {
        let n = g.node_count() as u32;
        let mut kernel = VertexFlow::with_row_form(g, bit_rows);
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for v in 0..n {
            for w in 0..n {
                let (Some(paths), Some(cut)) = (kernel.paths(v, w), kernel.min_cut(v, w)) else {
                    hash = fnv1a(hash, [u32::MAX]);
                    continue;
                };
                hash = fnv1a(hash, [paths.len() as u32]);
                for path in &paths {
                    hash = fnv1a(hash, [path.len() as u32]);
                    hash = fnv1a(hash, path.iter().copied());
                }
                hash = fnv1a(hash, [cut.len() as u32]);
                hash = fnv1a(hash, cut);
            }
        }
        assert_clean(&kernel);
        hash
    }

    #[test]
    fn witnesses_are_pinned_pair_by_pair() {
        // Which maximum flow the kernel routes decides which Menger paths
        // come back; these digests pin that choice on a sparse graph and
        // on a dense one shaped like the n = 75 defense overlays, under
        // both row forms.
        let sparse = gnp(40, 0.3, &mut SmallRng::seed_from_u64(40));
        let dense = gnp(60, 0.7, &mut SmallRng::seed_from_u64(60));
        for bit_rows in [true, false] {
            assert_eq!(witness_digest(&sparse, bit_rows), 0xe589_d0b1_f315_77f0);
            assert_eq!(witness_digest(&dense, bit_rows), 0x230c_feb7_c33f_6243);
        }
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn out_of_range_vertex_panics() {
        VertexFlow::new(&cycle(4)).connectivity(0, 4, None);
    }
}
