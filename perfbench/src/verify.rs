//! Grid-based clustering verifier, linear in the input for bounded cell
//! occupancy.
//!
//! Points are bucketed into cells of side `eps` (padded by a relative
//! `1e-4` so `f32` rounding can never hide a neighbour two cells away);
//! every `eps`-neighbour of a point then lies in the `3^D` cells around
//! its own, the cell method of Wang, Gu & Shun. The verifier re-derives
//! what the DBSCAN definitions fix about a result, with the library's own
//! inclusive `Point::dist_sq(..) <= eps * eps` test:
//!
//! * core flags: a point is core iff it has at least `minpts` neighbours,
//!   itself included;
//! * noise has no core neighbour;
//! * every border point has a core neighbour in its own cluster;
//! * core partitions: adjacent core points share a cluster, and the core
//!   points of each cluster form one connected component of the
//!   core–core `eps` graph, so components map one-to-one onto clusters.
//!
//! Connectivity uses a host union-find over core points. A pair of cells
//! whose core points carry one cluster label stops scanning as soon as all
//! its core points sit in one set, so dense regions cost one pass per
//! cell pair instead of one test per point pair.

use std::collections::HashMap;

use fdbscan::{Clustering, Params, PointClass, NOISE};
use fdbscan_geom::Point;

/// Points bucketed into `eps`-side cells, with each cell's neighbour
/// cells (itself first).
pub struct EpsGrid<const D: usize> {
    eps_sq: f32,
    /// Points in cell order.
    sorted: Vec<Point<D>>,
    /// Original index of each sorted slot.
    ids: Vec<u32>,
    /// Cell `c` covers sorted slots `starts[c]..starts[c + 1]`.
    starts: Vec<u32>,
    /// Neighbour cells of cell `c`: `neighbors[nstarts[c]..nstarts[c + 1]]`.
    neighbors: Vec<u32>,
    nstarts: Vec<u32>,
}

impl<const D: usize> EpsGrid<D> {
    /// Buckets `points` (counting sort on first-appearance cell ids).
    ///
    /// # Panics
    /// Panics if `eps` is not positive and finite or `points.len()`
    /// exceeds `u32::MAX`.
    pub fn new(points: &[Point<D>], eps: f32) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive and finite");
        let n = u32::try_from(points.len()).expect("at most u32::MAX points");
        let side = f64::from(eps) * (1.0 + 1e-4);
        let mut origin = [f64::INFINITY; D];
        for p in points {
            for (o, &x) in origin.iter_mut().zip(&p.coords) {
                *o = o.min(f64::from(x));
            }
        }
        let key_of = |p: &Point<D>| -> [i64; D] {
            std::array::from_fn(|d| ((f64::from(p.coords[d]) - origin[d]) / side).floor() as i64)
        };

        let mut cell_of_key: HashMap<[i64; D], u32> = HashMap::new();
        let mut keys: Vec<[i64; D]> = Vec::new();
        let mut cell_of_point = Vec::with_capacity(points.len());
        for p in points {
            let key = key_of(p);
            let cell = *cell_of_key.entry(key).or_insert_with(|| {
                keys.push(key);
                (keys.len() - 1) as u32
            });
            cell_of_point.push(cell);
        }

        let cells = keys.len();
        let mut starts = vec![0u32; cells + 1];
        for &c in &cell_of_point {
            starts[c as usize + 1] += 1;
        }
        for c in 0..cells {
            starts[c + 1] += starts[c];
        }
        let mut cursor = starts[..cells].to_vec();
        let mut ids = vec![0u32; n as usize];
        for (i, &c) in cell_of_point.iter().enumerate() {
            ids[cursor[c as usize] as usize] = i as u32;
            cursor[c as usize] += 1;
        }
        let sorted = ids.iter().map(|&i| points[i as usize]).collect();

        let mut neighbors = Vec::with_capacity(cells * 3usize.pow(D as u32));
        let mut nstarts = Vec::with_capacity(cells + 1);
        nstarts.push(0u32);
        for (c, key) in keys.iter().enumerate() {
            neighbors.push(c as u32);
            for offset in 0..3usize.pow(D as u32) {
                let mut rest = offset;
                let probe: [i64; D] = std::array::from_fn(|d| {
                    let step = (rest % 3) as i64 - 1;
                    rest /= 3;
                    key[d] + step
                });
                if probe == *key {
                    continue;
                }
                if let Some(&other) = cell_of_key.get(&probe) {
                    neighbors.push(other);
                }
            }
            nstarts.push(neighbors.len() as u32);
        }
        Self { eps_sq: eps * eps, sorted, ids, starts, neighbors, nstarts }
    }

    /// Number of non-empty cells.
    pub fn cells(&self) -> usize {
        self.starts.len() - 1
    }

    fn slots(&self, cell: u32) -> std::ops::Range<usize> {
        self.starts[cell as usize] as usize..self.starts[cell as usize + 1] as usize
    }

    fn neighbor_cells(&self, cell: u32) -> &[u32] {
        &self.neighbors
            [self.nstarts[cell as usize] as usize..self.nstarts[cell as usize + 1] as usize]
    }

    #[inline]
    fn close(&self, a: usize, b: usize) -> bool {
        self.sorted[a].dist_sq(&self.sorted[b]) <= self.eps_sq
    }

    /// Calls `emit` with chunks of at most `chunk` core–core edges
    /// `(i, j)` within `eps` (original indices, each unordered pair once,
    /// in cell order) until `max_edges` were emitted. Returns the number
    /// of edges emitted.
    pub fn for_each_core_edge_chunk(
        &self,
        core: &[bool],
        chunk: usize,
        max_edges: usize,
        mut emit: impl FnMut(&[(u32, u32)]),
    ) -> usize {
        assert!(chunk > 0, "chunk must be nonzero");
        let mut buf = Vec::with_capacity(chunk.min(max_edges));
        let mut emitted = 0usize;
        for a in 0..self.cells() as u32 {
            for &b in self.neighbor_cells(a) {
                if b < a {
                    continue;
                }
                for s in self.slots(a) {
                    let i = self.ids[s];
                    if !core[i as usize] {
                        continue;
                    }
                    let from = if a == b { s + 1 } else { self.slots(b).start };
                    for t in from..self.slots(b).end {
                        let j = self.ids[t];
                        if core[j as usize] && self.close(s, t) {
                            buf.push((i, j));
                            emitted += 1;
                            if buf.len() == chunk || emitted == max_edges {
                                emit(&buf);
                                buf.clear();
                                if emitted == max_edges {
                                    return emitted;
                                }
                            }
                        }
                    }
                }
            }
        }
        if !buf.is_empty() {
            emit(&buf);
        }
        emitted
    }
}

/// Host union-find over sorted slots (path halving, smaller root wins).
struct Forest(Vec<u32>);

impl Forest {
    fn find(&mut self, mut x: u32) -> u32 {
        while self.0[x as usize] != x {
            let grand = self.0[self.0[x as usize] as usize];
            self.0[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.0[hi as usize] = lo;
        true
    }
}

/// Checks `clustering` against the DBSCAN definitions for
/// (`points`, `params`). Returns a message naming the first violation.
pub fn verify<const D: usize>(
    points: &[Point<D>],
    clustering: &Clustering,
    params: Params,
) -> Result<(), String> {
    verify_on(&EpsGrid::new(points, params.eps), clustering, params.minpts)
}

/// [`verify`] on a prebuilt grid (the grid fixes points and `eps`).
pub fn verify_on<const D: usize>(
    grid: &EpsGrid<D>,
    clustering: &Clustering,
    minpts: usize,
) -> Result<(), String> {
    let n = grid.sorted.len();
    if clustering.assignments.len() != n || clustering.classes.len() != n {
        return Err(format!("clustering covers {} points, input has {n}", clustering.len()));
    }
    let k = clustering.num_clusters;
    let mut has_core = vec![false; k];
    for i in 0..n {
        let (class, a) = (clustering.classes[i], clustering.assignments[i]);
        match class {
            PointClass::Noise if a != NOISE => {
                return Err(format!("noise point {i} carries cluster {a}"))
            }
            PointClass::Core | PointClass::Border if a < 0 || a as usize >= k => {
                return Err(format!("point {i} has cluster id {a} outside 0..{k}"))
            }
            PointClass::Core => has_core[a as usize] = true,
            _ => {}
        }
    }
    if let Some(c) = has_core.iter().position(|&h| !h) {
        return Err(format!("cluster {c} has no core point"));
    }

    // Per-slot copies in cell order.
    let class: Vec<PointClass> = grid.ids.iter().map(|&i| clustering.classes[i as usize]).collect();
    let label: Vec<i64> = grid.ids.iter().map(|&i| clustering.assignments[i as usize]).collect();
    let is_core: Vec<bool> = class.iter().map(|&c| c == PointClass::Core).collect();

    // Core flags, then border and noise attachment.
    for a in 0..grid.cells() as u32 {
        let near = grid.neighbor_cells(a);
        for s in grid.slots(a) {
            let mut degree = 0usize;
            'count: for &b in near {
                for t in grid.slots(b) {
                    if grid.close(s, t) {
                        degree += 1;
                        if degree >= minpts {
                            break 'count;
                        }
                    }
                }
            }
            let core = degree >= minpts;
            let id = grid.ids[s];
            if core != is_core[s] {
                return Err(format!(
                    "point {id} is labeled {:?} but has {}{degree} neighbours for minpts {minpts}",
                    class[s],
                    if core { "at least " } else { "" },
                ));
            }
            if core {
                continue;
            }
            let own = label[s];
            let mut witness = false;
            'attach: for &b in near {
                for t in grid.slots(b) {
                    if !is_core[t] {
                        continue;
                    }
                    if grid.close(s, t) {
                        if own == NOISE {
                            return Err(format!(
                                "noise point {id} is within eps of core point {}",
                                grid.ids[t]
                            ));
                        }
                        if label[t] == own {
                            witness = true;
                            break 'attach;
                        }
                    }
                }
            }
            if own != NOISE && !witness {
                return Err(format!("border point {id} has no adjacent core in its cluster {own}"));
            }
        }
    }

    // Core partitions. Core slots of each cell, and the cell's single
    // cluster label when all its core points share one.
    let cells = grid.cells();
    let mut core_slots = Vec::new();
    let mut core_starts = Vec::with_capacity(cells + 1);
    let mut uniform: Vec<Option<i64>> = Vec::with_capacity(cells);
    core_starts.push(0usize);
    for c in 0..cells as u32 {
        let mut single = None;
        let mut mixed = false;
        for s in grid.slots(c) {
            if is_core[s] {
                core_slots.push(s as u32);
                match single {
                    None => single = Some(label[s]),
                    Some(l) if l != label[s] => mixed = true,
                    _ => {}
                }
            }
        }
        core_starts.push(core_slots.len());
        uniform.push(if mixed { None } else { single });
    }
    let cores_of = |c: u32| &core_slots[core_starts[c as usize]..core_starts[c as usize + 1]];

    let mut forest = Forest((0..n as u32).collect());
    let mut roots = Vec::new();
    // Pass 0 joins each cell with itself, pass 1 with its later
    // neighbours; after pass 0 most dense cells are one set already.
    for pass in 0..2 {
        for a in 0..cells as u32 {
            for &b in grid.neighbor_cells(a) {
                if (pass == 0) != (a == b) || b < a {
                    continue;
                }
                let (ca, cb) = (cores_of(a), cores_of(b));
                if ca.is_empty() || cb.is_empty() {
                    continue;
                }
                let one_label =
                    uniform[a as usize].is_some() && uniform[a as usize] == uniform[b as usize];
                // With one label there is nothing to check across labels:
                // stop once every core point of both cells is in one set.
                let mut sets = usize::MAX;
                if one_label {
                    roots.clear();
                    roots.extend(ca.iter().chain(cb).map(|&s| forest.find(s)));
                    roots.sort_unstable();
                    roots.dedup();
                    sets = roots.len();
                    if sets == 1 {
                        continue;
                    }
                }
                'pair: for (x, &s) in ca.iter().enumerate() {
                    let partners = if a == b { &cb[x + 1..] } else { cb };
                    for &t in partners {
                        let (s, t) = (s as usize, t as usize);
                        if label[s] != label[t] {
                            if grid.close(s, t) {
                                return Err(format!(
                                    "adjacent core points {} and {} are in different clusters {} and {}",
                                    grid.ids[s], grid.ids[t], label[s], label[t]
                                ));
                            }
                        } else if forest.find(s as u32) != forest.find(t as u32)
                            && grid.close(s, t)
                            && forest.union(s as u32, t as u32)
                        {
                            sets = sets.saturating_sub(1);
                            if sets == 1 {
                                break 'pair;
                            }
                        }
                    }
                }
            }
        }
    }

    // No edge crosses clusters, so each component lies in one cluster;
    // each cluster must also be a single component.
    let mut root_of_cluster = vec![u32::MAX; k];
    for &s in &core_slots {
        let root = forest.find(s);
        let c = label[s as usize] as usize;
        if root_of_cluster[c] == u32::MAX {
            root_of_cluster[c] = root;
        } else if root_of_cluster[c] != root {
            return Err(format!("cluster {c} splits into disconnected core components"));
        }
    }
    Ok(())
}
