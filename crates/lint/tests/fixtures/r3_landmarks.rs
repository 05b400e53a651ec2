//! R3 fixture: epoch discipline on the LandmarkTable rebuild path and
//! the LandmarkTrees regrowth path.
//! Not compiled — lexed by `tests/corpus.rs` under a semantic-crate path.

impl LandmarkTable {
    pub fn rebuild_no_key(&mut self, g: &Graph) {
        // finding: rewrites landmark rows without keying them to an epoch
        self.rows.clear();
        self.landmarks.push(seed);
    }

    pub fn rebuild_keyed_ok(&mut self, g: &Graph) {
        self.rows.clear();
        self.landmarks.push(seed);
        self.built_epoch = Some((g.node_count(), g.topology_epoch())); // satisfied
    }

    pub fn read_row(&self, lm: usize) -> Row {
        row_of(&self.rows, lm) // &self — out of scope
    }
}

impl LandmarkTrees {
    fn regrow_no_key(&mut self, roots: &[NodeId]) {
        // finding: regrows the trees without stamping them
        self.trees.resize_with(roots.len(), ShortestPathTree::default);
    }

    fn regrow_keyed_ok(&mut self, g: &Graph, roots: &[NodeId]) {
        self.trees.resize_with(roots.len(), ShortestPathTree::default);
        self.epoch = Some(g.topology_epoch()); // satisfied
    }
}
