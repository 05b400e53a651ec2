//! R3 fixture: epoch-contract violations on Graph, and NetworkFunds
//! balance writes, which are out of scope (no cache entry reads
//! balances, so the funds keep no epoch).
//! Not compiled — lexed by `tests/corpus.rs` under a semantic-crate path.

impl NetworkFunds {
    pub fn lock_no_bump(&mut self, id: ChannelId, amount: Amount) {
        // out of scope: balance writes need no epoch
        self.get_mut(id).lock(amount);
    }

    pub fn settle_ok(&mut self, id: ChannelId, amount: Amount) {
        self.get_mut(id).settle(amount);
        self.bump(id); // out of scope either way
    }

    pub fn rebalance_ok(&mut self, id: ChannelId) {
        let ch = self.get_mut(id);
        ch.bal_ab = ch.bal_ba;
        self.funds_epoch += 1; // out of scope either way
    }

    pub fn read_only(&self, id: ChannelId) -> Amount {
        self.get(id).bal_ab // &self — out of scope
    }
}

impl Mutate for Graph {
    fn sprout_no_bump(&mut self, v: NodeId) {
        // finding: touches adjacency, no epoch mention
        self.delta[v.index()].push(entry(v));
    }

    fn sprout_ok(&mut self, v: NodeId) {
        self.delta[v.index()].push(entry(v));
        self.topology_epoch += 1; // satisfied
    }
}

impl SomethingElse {
    fn unrelated(&mut self) {
        self.csr.clear(); // other types are out of scope
    }
}
