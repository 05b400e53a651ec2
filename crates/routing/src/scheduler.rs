//! Waiting-queue scheduling disciplines (Table II).
//!
//! When a channel direction lacks funds (or the rate limiter holds a TU
//! back), TUs wait in a per-direction queue. Which TU to serve when funds
//! free up is the *scheduling algorithm* ablated in Table II: LIFO wins in
//! the paper because it serves transactions farthest from their deadline
//! first, letting fresh TUs through instead of burning funds on nearly
//! expired ones.

use pcn_types::{Amount, SimTime, TuId};

/// Queue discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Discipline {
    /// First in, first out.
    Fifo,
    /// Last in, first out (the paper's best performer).
    #[default]
    Lifo,
    /// Smallest payment first.
    Spf,
    /// Earliest deadline first.
    Edf,
}

impl Discipline {
    /// All disciplines, for Table II sweeps.
    pub const ALL: [Discipline; 4] = [
        Discipline::Fifo,
        Discipline::Lifo,
        Discipline::Spf,
        Discipline::Edf,
    ];

    /// Human-readable name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            Discipline::Fifo => "FIFO",
            Discipline::Lifo => "LIFO",
            Discipline::Spf => "SPF",
            Discipline::Edf => "EDF",
        }
    }
}

/// An entry waiting in a channel queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueEntry {
    /// The queued TU.
    pub tu: TuId,
    /// Value it carries (for SPF and queue-size accounting).
    pub amount: Amount,
    /// Deadline of its transaction (for EDF).
    pub deadline: SimTime,
    /// When it was enqueued (for FIFO/LIFO and delay marking).
    pub enqueued_at: SimTime,
    /// Monotone arrival sequence breaking all ties deterministically.
    pub seq: u64,
}

/// A per-direction waiting queue with a pluggable discipline and a token
/// capacity bound (paper: 8000 tokens per queue).
#[derive(Clone, Debug)]
pub struct WaitQueue {
    entries: Vec<QueueEntry>,
    discipline: Discipline,
    capacity: Amount,
    queued_value: Amount,
    next_seq: u64,
    /// Smallest queued amount (exact; `ZERO` when empty). Lets
    /// [`WaitQueue::pop_eligible`] answer "nothing fits" in O(1), the
    /// common case when a drained direction frees less than one TU: the
    /// hot hop-lock path would otherwise pay a full scan per settle on
    /// a saturated queue. Maintained O(1) on push; a removal recomputes
    /// it only when the departing entry *was* the minimum.
    min_amount: Amount,
}

impl WaitQueue {
    /// Creates an empty queue.
    pub fn new(discipline: Discipline, capacity: Amount) -> WaitQueue {
        WaitQueue {
            entries: Vec::new(),
            discipline,
            capacity,
            queued_value: Amount::ZERO,
            next_seq: 0,
            min_amount: Amount::ZERO,
        }
    }

    /// Number of queued TUs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total queued value (`q_amount` in Algorithm 2).
    pub fn queued_value(&self) -> Amount {
        self.queued_value
    }

    /// Pre-sizes the entry storage (steady-state allocation-freedom).
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Tries to enqueue; returns `false` (rejecting the TU) when the
    /// capacity bound would be exceeded.
    pub fn push(&mut self, tu: TuId, amount: Amount, deadline: SimTime, now: SimTime) -> bool {
        if self.queued_value + amount > self.capacity {
            return false;
        }
        if self.entries.is_empty() || amount < self.min_amount {
            self.min_amount = amount;
        }
        self.entries.push(QueueEntry {
            tu,
            amount,
            deadline,
            enqueued_at: now,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        self.queued_value += amount;
        true
    }

    /// Selects (and removes) the next TU to serve under the discipline,
    /// restricted to entries whose `amount ≤ available`. Returns `None`
    /// when nothing fits.
    ///
    /// Entries are stored in arrival (`seq`) order, so FIFO takes the
    /// first eligible entry from the front and LIFO the first from the
    /// back — early-exit scans. SPF/EDF genuinely need the full
    /// minimum. Selection is identical to a full
    /// `min_by(discipline key, then seq)` scan in every discipline.
    pub fn pop_eligible(&mut self, available: Amount) -> Option<QueueEntry> {
        if self.entries.is_empty() || available < self.min_amount {
            return None;
        }
        let idx = match self.discipline {
            Discipline::Fifo => self.entries.iter().position(|e| e.amount <= available)?,
            Discipline::Lifo => self.entries.iter().rposition(|e| e.amount <= available)?,
            Discipline::Spf => self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.amount <= available)
                .min_by(|(_, a), (_, b)| a.amount.cmp(&b.amount).then(a.seq.cmp(&b.seq)))
                .map(|(i, _)| i)?,
            Discipline::Edf => self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.amount <= available)
                .min_by(|(_, a), (_, b)| a.deadline.cmp(&b.deadline).then(a.seq.cmp(&b.seq)))
                .map(|(i, _)| i)?,
        };
        let entry = self.entries.remove(idx);
        self.queued_value -= entry.amount;
        self.note_removed(entry.amount);
        Some(entry)
    }

    /// Restores the exact `min_amount` after removing an entry of
    /// `amount`: only a departure of the current minimum can raise it,
    /// so the O(n) rescan runs just in that case.
    fn note_removed(&mut self, amount: Amount) {
        if self.entries.is_empty() {
            self.min_amount = Amount::ZERO;
        } else if amount <= self.min_amount {
            self.min_amount = self
                .entries
                .iter()
                .map(|e| e.amount)
                .min()
                .expect("non-empty");
        }
    }

    /// Removes a specific TU (timeout/abort path). Returns the entry if it
    /// was queued.
    pub fn remove(&mut self, tu: TuId) -> Option<QueueEntry> {
        let idx = self.entries.iter().position(|e| e.tu == tu)?;
        let entry = self.entries.remove(idx);
        self.queued_value -= entry.amount;
        self.note_removed(entry.amount);
        Some(entry)
    }

    /// Removes every entry whose deadline is at or before `now` (expired).
    pub fn drain_expired(&mut self, now: SimTime) -> Vec<QueueEntry> {
        let mut expired = Vec::new();
        self.drain_expired_into(now, &mut expired);
        expired
    }

    /// [`WaitQueue::drain_expired`] into a caller-owned buffer (appended;
    /// not cleared), so the engine's periodic tick reuses one buffer
    /// across all queues and allocates nothing when queues are quiet.
    /// Expired entries append in queue-position order; retained entries
    /// keep their relative order.
    pub fn drain_expired_into(&mut self, now: SimTime, out: &mut Vec<QueueEntry>) {
        let mut kept = 0;
        let mut survivor_min = Amount::ZERO;
        for i in 0..self.entries.len() {
            let e = self.entries[i];
            if e.deadline <= now {
                self.queued_value -= e.amount;
                out.push(e);
            } else {
                if kept == 0 || e.amount < survivor_min {
                    survivor_min = e.amount;
                }
                self.entries[kept] = e;
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        // The walk visited every survivor anyway: the min is free.
        self.min_amount = survivor_min;
    }

    /// Appends the entries whose queueing delay exceeds `threshold` at
    /// time `now` (candidates for congestion marking) to a caller-owned
    /// buffer, which is not cleared: the periodic tick reuses one buffer
    /// and allocates nothing.
    pub fn over_delay_into(
        &self,
        now: SimTime,
        threshold: pcn_types::SimDuration,
        out: &mut Vec<TuId>,
    ) {
        out.extend(
            self.entries
                .iter()
                .filter(|e| now.saturating_since(e.enqueued_at) > threshold)
                .map(|e| e.tu),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcn_types::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn tok(v: u64) -> Amount {
        Amount::from_tokens(v)
    }

    fn queue_with(discipline: Discipline) -> WaitQueue {
        let mut q = WaitQueue::new(discipline, tok(100));
        // (tu, amount, deadline, enqueue time)
        q.push(TuId::new(1), tok(5), t(300), t(10));
        q.push(TuId::new(2), tok(2), t(100), t(20));
        q.push(TuId::new(3), tok(8), t(200), t(30));
        q
    }

    #[test]
    fn fifo_order() {
        let mut q = queue_with(Discipline::Fifo);
        assert_eq!(q.pop_eligible(tok(10)).unwrap().tu, TuId::new(1));
        assert_eq!(q.pop_eligible(tok(10)).unwrap().tu, TuId::new(2));
        assert_eq!(q.pop_eligible(tok(10)).unwrap().tu, TuId::new(3));
        assert!(q.pop_eligible(tok(10)).is_none());
    }

    #[test]
    fn lifo_order() {
        let mut q = queue_with(Discipline::Lifo);
        assert_eq!(q.pop_eligible(tok(10)).unwrap().tu, TuId::new(3));
        assert_eq!(q.pop_eligible(tok(10)).unwrap().tu, TuId::new(2));
    }

    #[test]
    fn spf_order() {
        let mut q = queue_with(Discipline::Spf);
        assert_eq!(q.pop_eligible(tok(10)).unwrap().tu, TuId::new(2)); // 2 tokens
        assert_eq!(q.pop_eligible(tok(10)).unwrap().tu, TuId::new(1)); // 5 tokens
    }

    #[test]
    fn edf_order() {
        let mut q = queue_with(Discipline::Edf);
        assert_eq!(q.pop_eligible(tok(10)).unwrap().tu, TuId::new(2)); // deadline 100
        assert_eq!(q.pop_eligible(tok(10)).unwrap().tu, TuId::new(3)); // deadline 200
    }

    #[test]
    fn eligibility_filters_by_available_funds() {
        let mut q = queue_with(Discipline::Fifo);
        // Only the 2-token TU fits under 3 tokens available.
        assert_eq!(q.pop_eligible(tok(3)).unwrap().tu, TuId::new(2));
        assert_eq!(q.len(), 2);
        assert!(q.pop_eligible(tok(1)).is_none());
    }

    #[test]
    fn capacity_bound_rejects() {
        let mut q = WaitQueue::new(Discipline::Fifo, tok(10));
        assert!(q.push(TuId::new(1), tok(6), t(100), t(0)));
        assert!(!q.push(TuId::new(2), tok(5), t(100), t(0)));
        assert!(q.push(TuId::new(3), tok(4), t(100), t(0)));
        assert_eq!(q.queued_value(), tok(10));
    }

    #[test]
    fn remove_and_expired() {
        let mut q = queue_with(Discipline::Fifo);
        assert_eq!(q.remove(TuId::new(2)).unwrap().amount, tok(2));
        assert_eq!(q.remove(TuId::new(2)), None);
        let expired = q.drain_expired(t(250));
        assert_eq!(expired.len(), 1); // deadline 200 entry
        assert_eq!(expired[0].tu, TuId::new(3));
        assert_eq!(q.len(), 1);
        assert_eq!(q.queued_value(), tok(5));
    }

    #[test]
    fn over_delay_marks_old_entries() {
        let q = queue_with(Discipline::Fifo);
        let mut over = Vec::new();
        q.over_delay_into(t(500), SimDuration::from_micros(400), &mut over);
        // enqueued at 10, 20, 30: delays 490, 480, 470 → only > 400: all.
        assert_eq!(over.len(), 3);
        // Delays at t=445: 435/425/415 for enqueue times 10/20/30. The
        // buffer is appended to, not cleared.
        q.over_delay_into(t(445), SimDuration::from_micros(430), &mut over);
        assert_eq!(over[3..], [TuId::new(1)]);
    }
}
