//! The replicated world state: account balances and nonces.
//!
//! Applying a block is deterministic, so every node that executes the same
//! chain prefix reaches the same state and the same [`WorldState::root`]
//! commitment — the property the collaborative verification protocol relies
//! on when cluster members cross-check a proposed block's `state_root`.
//!
//! # Layout and commitments
//!
//! Accounts live in one `Arc`-shared `BTreeMap` keyed by address, so
//! cloning a state is an O(1) `Arc` bump and the first mutation after a
//! clone copies the map (copy-on-write). Two commitments are available
//! behind versioned domain tags:
//!
//! * [`WorldState::root`] — the flat v1 commitment, a single SHA-256 over
//!   every account in address order. O(total accounts).
//! * [`WorldState::sharded_root`] — the v2 commitment: 64 fixed logical
//!   buckets (see [`crate::shard`]), each summarised by an
//!   incrementally-maintained lattice accumulator (order-independent
//!   wrapping sums of per-account hashes, updated O(1) per touched
//!   account), combined as a hash over the 64 cached bucket roots in
//!   bucket order. Only buckets dirtied since the last call are
//!   re-derived, so per-block commitment cost is proportional to
//!   touched accounts, not total accounts. The value is independent of
//!   the thread count.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use ici_crypto::sha256::{Digest, Sha256};

use crate::block::Block;
use crate::shard::{bucket_of, STATE_BUCKETS};
use crate::transaction::{Address, Transaction};

/// Balance and sequence number of one account.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccountState {
    /// Spendable balance.
    pub balance: u64,
    /// Next expected transaction nonce.
    pub nonce: u64,
}

/// Reasons a transaction is rejected by state execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// Sender balance below `amount + fee`.
    InsufficientBalance {
        /// Sender address.
        sender: Address,
        /// Balance available.
        available: u64,
        /// Amount plus fee required.
        required: u64,
    },
    /// Transaction nonce is not the sender's next nonce.
    BadNonce {
        /// Sender address.
        sender: Address,
        /// Nonce expected by the state.
        expected: u64,
        /// Nonce carried by the transaction.
        actual: u64,
    },
    /// Signature verification failed.
    BadSignature,
    /// `amount + fee` overflowed.
    AmountOverflow,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::InsufficientBalance {
                sender,
                available,
                required,
            } => write!(
                f,
                "insufficient balance for {sender}: have {available}, need {required}"
            ),
            StateError::BadNonce {
                sender,
                expected,
                actual,
            } => write!(
                f,
                "bad nonce for {sender}: expected {expected}, got {actual}"
            ),
            StateError::BadSignature => f.write_str("invalid transaction signature"),
            StateError::AmountOverflow => f.write_str("amount + fee overflows"),
        }
    }
}

impl Error for StateError {}

/// Which state commitment a block header carries.
///
/// v1 is the default everywhere so existing committed records stay
/// byte-identical; the scale tier opts into v2 explicitly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StateCommitment {
    /// Flat SHA-256 over all accounts (domain tag `ici-state-v1:`).
    #[default]
    FlatV1,
    /// Bucketed lattice commitment (domain tag `ici-state-v2:`).
    ShardedV2,
}

/// Domain tag for per-account leaf hashes of the v2 commitment.
const ACCT_TAG: &[u8] = b"ici-state-v2-acct:";
/// Domain tag for per-bucket roots of the v2 commitment.
const BUCKET_TAG: &[u8] = b"ici-state-v2-bucket:";
/// Domain tag for the combined v2 root.
const COMBINED_TAG: &[u8] = b"ici-state-v2:";

/// Hash contributed by one account to its bucket accumulator.
fn acct_hash(address: &Address, acct: &AccountState) -> Digest {
    let mut h = Sha256::new();
    h.update(ACCT_TAG);
    h.update(address.as_bytes());
    h.update(&acct.balance.to_be_bytes());
    h.update(&acct.nonce.to_be_bytes());
    h.finalize()
}

/// Order-independent lattice accumulator over the account hashes of one
/// logical bucket: four wrapping u64 lanes plus a live-account count.
/// `add` and `sub` are exact inverses, so updating an account is
/// sub(old) + add(new) — O(1) regardless of bucket size. An account
/// contributes iff its map entry exists, which keeps the accumulator in
/// lockstep with the account map (entries are created, never deleted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct BucketAcc {
    sum: [u64; 4],
    count: u64,
}

impl BucketAcc {
    fn lanes(digest: &Digest) -> [u64; 4] {
        let bytes = digest.as_bytes();
        let mut lanes = [0u64; 4];
        for (i, lane) in lanes.iter_mut().enumerate() {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            *lane = u64::from_le_bytes(word);
        }
        lanes
    }

    fn add(&mut self, digest: &Digest) {
        for (lane, d) in self.sum.iter_mut().zip(Self::lanes(digest)) {
            *lane = lane.wrapping_add(d);
        }
    }

    fn sub(&mut self, digest: &Digest) {
        for (lane, d) in self.sum.iter_mut().zip(Self::lanes(digest)) {
            *lane = lane.wrapping_sub(d);
        }
    }

    fn root(&self, bucket: u32) -> Digest {
        let mut h = Sha256::new();
        h.update(BUCKET_TAG);
        h.update(&bucket.to_be_bytes());
        h.update(&self.count.to_be_bytes());
        for lane in &self.sum {
            h.update(&lane.to_be_bytes());
        }
        h.finalize()
    }
}

/// The full account state, keyed by address.
///
/// Backed by a `BTreeMap`, so iteration order — and therefore the state
/// root — is canonical.
#[derive(Clone, Debug)]
pub struct WorldState {
    /// Accounts in address order; `Arc` so clones are O(1) and the
    /// first mutation after a clone copies the map.
    accounts: Arc<BTreeMap<Address, AccountState>>,
    /// Lattice accumulator per logical bucket (always [`STATE_BUCKETS`]).
    acc: Vec<BucketAcc>,
    /// Cached v2 bucket roots; `None` marks a bucket dirtied since the
    /// last [`WorldState::sharded_root`] call.
    cached: Vec<Option<Digest>>,
}

impl Default for WorldState {
    fn default() -> WorldState {
        WorldState::new()
    }
}

impl PartialEq for WorldState {
    /// Content equality: two states are equal when they hold the same
    /// accounts.
    fn eq(&self, other: &WorldState) -> bool {
        self.accounts == other.accounts
    }
}

impl Eq for WorldState {}

impl WorldState {
    /// An empty state.
    pub fn new() -> WorldState {
        WorldState {
            accounts: Arc::new(BTreeMap::new()),
            acc: vec![BucketAcc::default(); STATE_BUCKETS],
            cached: vec![None; STATE_BUCKETS],
        }
    }

    /// Creates a state with the given initial balances (nonces zero).
    pub fn with_balances<I>(balances: I) -> WorldState
    where
        I: IntoIterator<Item = (Address, u64)>,
    {
        let mut state = WorldState::new();
        for (addr, balance) in balances {
            state.update_account(addr, |acct| *acct = AccountState { balance, nonce: 0 });
        }
        state
    }

    /// Iterates all accounts in address order.
    pub fn accounts(&self) -> impl Iterator<Item = (&Address, &AccountState)> {
        self.accounts.iter()
    }

    /// Read-modify-write on one account through the commitment
    /// bookkeeping: subtracts the old leaf hash from the bucket
    /// accumulator, applies `f`, adds the new leaf hash, and marks the
    /// bucket dirty. Absent accounts start from the default (zero) state.
    fn update_account<F: FnOnce(&mut AccountState)>(&mut self, address: Address, f: F) {
        let bucket = bucket_of(&address);
        match Arc::make_mut(&mut self.accounts).entry(address) {
            std::collections::btree_map::Entry::Occupied(mut occupied) => {
                let old = acct_hash(&address, occupied.get());
                f(occupied.get_mut());
                let new = acct_hash(&address, occupied.get());
                self.acc[bucket].sub(&old);
                self.acc[bucket].add(&new);
            }
            std::collections::btree_map::Entry::Vacant(vacant) => {
                let mut acct = AccountState::default();
                f(&mut acct);
                let new = acct_hash(&address, vacant.insert(acct));
                self.acc[bucket].add(&new);
                self.acc[bucket].count += 1;
            }
        }
        self.cached[bucket] = None;
    }

    /// Looks up an account, returning the default (zero) state if absent.
    pub fn account(&self, address: &Address) -> AccountState {
        self.accounts.get(address).copied().unwrap_or_default()
    }

    /// Balance shortcut.
    pub fn balance(&self, address: &Address) -> u64 {
        self.account(address).balance
    }

    /// Next-nonce shortcut.
    pub fn nonce(&self, address: &Address) -> u64 {
        self.account(address).nonce
    }

    /// Number of accounts with recorded state.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// Whether no account has recorded state.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Credits `amount` to `address` (used for genesis allocations and fee
    /// payouts).
    pub fn credit(&mut self, address: Address, amount: u64) {
        self.update_account(address, |acct| {
            acct.balance = acct.balance.saturating_add(amount);
        });
    }

    /// Validates `tx` against the current state without mutating it.
    ///
    /// # Errors
    ///
    /// Any [`StateError`] the transaction would trigger.
    pub fn check(&self, tx: &Transaction) -> Result<(), StateError> {
        if !tx.verify_signature() {
            return Err(StateError::BadSignature);
        }
        let sender = tx.sender_address();
        let account = self.account(&sender);
        if tx.nonce() != account.nonce {
            return Err(StateError::BadNonce {
                sender,
                expected: account.nonce,
                actual: tx.nonce(),
            });
        }
        let required = tx
            .amount()
            .checked_add(tx.fee())
            .ok_or(StateError::AmountOverflow)?;
        if account.balance < required {
            return Err(StateError::InsufficientBalance {
                sender,
                available: account.balance,
                required,
            });
        }
        Ok(())
    }

    /// Applies `tx`, transferring `amount` to the recipient and `fee` to
    /// `fee_collector`.
    ///
    /// # Errors
    ///
    /// Fails (leaving the state untouched) under the same conditions as
    /// [`WorldState::check`].
    pub fn apply(&mut self, tx: &Transaction, fee_collector: Address) -> Result<(), StateError> {
        self.check(tx)?;
        self.update_account(tx.sender_address(), |acct| {
            acct.balance -= tx.amount() + tx.fee();
            acct.nonce += 1;
        });
        self.credit(tx.recipient(), tx.amount());
        if tx.fee() > 0 {
            self.credit(fee_collector, tx.fee());
        }
        Ok(())
    }

    /// Applies every transaction of `block` in order, paying fees to the
    /// proposer's derived address.
    ///
    /// # Errors
    ///
    /// Stops at the first failing transaction, returning its index and
    /// error; earlier transactions remain applied (callers validate on a
    /// clone first — see [`crate::validation`]).
    pub fn apply_block(&mut self, block: &Block) -> Result<(), (usize, StateError)> {
        let collector = Address::from_seed(block.header().proposer);
        for (i, tx) in block.transactions().iter().enumerate() {
            self.apply(tx, collector).map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// A canonical commitment to the full state: the SHA-256 over all
    /// `(address, balance, nonce)` triples in address order.
    ///
    /// This is the flat v1 commitment — O(total accounts).
    pub fn root(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ici-state-v1:");
        for (addr, acct) in self.accounts() {
            h.update(addr.as_bytes());
            h.update(&acct.balance.to_be_bytes());
            h.update(&acct.nonce.to_be_bytes());
        }
        h.finalize()
    }

    /// Number of logical buckets whose cached v2 root is stale — the
    /// work the next [`WorldState::sharded_root`] call will do.
    pub fn dirty_buckets(&self) -> usize {
        self.cached.iter().filter(|c| c.is_none()).count()
    }

    /// The incremental v2 commitment: re-derives only the bucket roots
    /// dirtied since the last call (cost proportional to touched
    /// buckets, never total accounts) and hashes the 64 bucket roots in
    /// bucket order under the `ici-state-v2:` domain tag. Independent of
    /// thread count.
    pub fn sharded_root(&mut self) -> Digest {
        let mut recomputed = 0u64;
        for (bucket, slot) in self.cached.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(self.acc[bucket].root(bucket as u32));
                recomputed += 1;
            }
        }
        ici_telemetry::counter_add(
            "state/bucket_roots_recomputed",
            ici_telemetry::Label::Global,
            recomputed,
        );
        let mut h = Sha256::new();
        h.update(COMBINED_TAG);
        h.update(&(STATE_BUCKETS as u32).to_be_bytes());
        for slot in &self.cached {
            if let Some(digest) = slot {
                h.update(digest.as_bytes());
            }
        }
        h.finalize()
    }

    /// The commitment selected by `mode` (v1 flat or v2 sharded).
    pub fn root_for(&mut self, mode: StateCommitment) -> Digest {
        match mode {
            StateCommitment::FlatV1 => self.root(),
            StateCommitment::ShardedV2 => self.sharded_root(),
        }
    }

    /// Total supply across all accounts (conserved by [`WorldState::apply`]).
    pub fn total_supply(&self) -> u64 {
        self.accounts().map(|(_, a)| a.balance).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_crypto::sig::Keypair;

    fn funded(seed: u64, balance: u64) -> (Keypair, WorldState) {
        let pair = Keypair::from_seed(seed);
        let state = WorldState::with_balances([(Address::from_seed(seed), balance)]);
        (pair, state)
    }

    fn transfer(from: &Keypair, to: Address, amount: u64, fee: u64, nonce: u64) -> Transaction {
        Transaction::signed(from, to, amount, fee, nonce, Vec::new())
    }

    #[test]
    fn simple_transfer_moves_funds_and_bumps_nonce() {
        let (alice, mut state) = funded(1, 100);
        let bob = Address::from_seed(2);
        let collector = Address::from_seed(99);
        state
            .apply(&transfer(&alice, bob, 30, 5, 0), collector)
            .expect("valid transfer");
        assert_eq!(state.balance(&Address::from_seed(1)), 65);
        assert_eq!(state.balance(&bob), 30);
        assert_eq!(state.balance(&collector), 5);
        assert_eq!(state.nonce(&Address::from_seed(1)), 1);
    }

    #[test]
    fn insufficient_balance_is_rejected_without_mutation() {
        let (alice, mut state) = funded(1, 10);
        let before = state.clone();
        let err = state
            .apply(
                &transfer(&alice, Address::from_seed(2), 30, 5, 0),
                Address::from_seed(99),
            )
            .expect_err("should fail");
        assert!(matches!(
            err,
            StateError::InsufficientBalance { required: 35, .. }
        ));
        assert_eq!(state, before);
    }

    #[test]
    fn wrong_nonce_is_rejected() {
        let (alice, mut state) = funded(1, 100);
        let err = state
            .apply(
                &transfer(&alice, Address::from_seed(2), 1, 0, 5),
                Address::from_seed(99),
            )
            .expect_err("should fail");
        assert!(matches!(
            err,
            StateError::BadNonce {
                expected: 0,
                actual: 5,
                ..
            }
        ));
    }

    #[test]
    fn replay_is_rejected_by_nonce() {
        let (alice, mut state) = funded(1, 100);
        let tx = transfer(&alice, Address::from_seed(2), 10, 0, 0);
        let collector = Address::from_seed(99);
        state.apply(&tx, collector).expect("first apply");
        let err = state.apply(&tx, collector).expect_err("replay");
        assert!(matches!(err, StateError::BadNonce { .. }));
    }

    #[test]
    fn bad_signature_is_rejected() {
        let (_, mut state) = funded(1, 100);
        // Sign with a key that does not match the claimed sender by
        // constructing with a different pair then swapping: easiest is to
        // decode-modify, but the public API path is to check a tx whose
        // payload was altered after signing.
        let alice = Keypair::from_seed(1);
        let tx = transfer(&alice, Address::from_seed(2), 10, 0, 0);
        let mut bytes = crate::codec::Encode::to_bytes(&tx);
        // Flip a byte in the amount field (offset: 33 pk + 20 addr = 53).
        bytes[53 + 7] ^= 0x01;
        let forged = <Transaction as crate::codec::Decode>::from_bytes(&bytes).expect("decodes");
        assert_eq!(
            state.apply(&forged, Address::from_seed(99)),
            Err(StateError::BadSignature)
        );
    }

    #[test]
    fn amount_overflow_is_rejected() {
        let (alice, state) = funded(1, u64::MAX);
        let tx = transfer(&alice, Address::from_seed(2), u64::MAX, 1, 0);
        assert_eq!(state.check(&tx), Err(StateError::AmountOverflow));
    }

    #[test]
    fn total_supply_is_conserved() {
        let (alice, mut state) = funded(1, 1000);
        let supply = state.total_supply();
        state
            .apply(
                &transfer(&alice, Address::from_seed(2), 100, 7, 0),
                Address::from_seed(3),
            )
            .expect("valid");
        assert_eq!(state.total_supply(), supply);
    }

    #[test]
    fn root_is_order_independent_but_content_sensitive() {
        let a =
            WorldState::with_balances([(Address::from_seed(1), 10), (Address::from_seed(2), 20)]);
        let b =
            WorldState::with_balances([(Address::from_seed(2), 20), (Address::from_seed(1), 10)]);
        assert_eq!(a.root(), b.root());

        let c =
            WorldState::with_balances([(Address::from_seed(1), 11), (Address::from_seed(2), 20)]);
        assert_ne!(a.root(), c.root());
    }

    #[test]
    fn empty_state_has_stable_root() {
        assert_eq!(WorldState::new().root(), WorldState::default().root());
        assert!(WorldState::new().is_empty());
    }

    #[test]
    fn self_transfer_keeps_balance_minus_fee() {
        let (alice, mut state) = funded(1, 100);
        let me = Address::from_seed(1);
        state
            .apply(&transfer(&alice, me, 40, 3, 0), Address::from_seed(99))
            .expect("valid");
        assert_eq!(state.balance(&me), 97);
        assert_eq!(state.nonce(&me), 1);
    }

    #[test]
    fn fee_to_self_collector() {
        // A proposer including its own fee payout must still conserve supply.
        let (alice, mut state) = funded(1, 100);
        let collector = Address::from_seed(1);
        state
            .apply(
                &transfer(&alice, Address::from_seed(2), 10, 5, 0),
                collector,
            )
            .expect("valid");
        assert_eq!(state.balance(&Address::from_seed(1)), 90);
        assert_eq!(state.total_supply(), 100);
    }

    #[test]
    fn v2_root_is_order_independent_and_domain_separated() {
        let balances: Vec<(Address, u64)> =
            (0..200).map(|s| (Address::from_seed(s), 50 + s)).collect();
        let mut forward = WorldState::with_balances(balances.iter().copied());
        let mut reverse = WorldState::with_balances(balances.iter().rev().copied());
        assert_eq!(forward.sharded_root(), reverse.sharded_root());
        assert_eq!(forward, reverse);
        assert_ne!(
            forward.root(),
            forward.sharded_root(),
            "domain tags must separate v1 and v2"
        );
    }

    #[test]
    fn sharded_root_tracks_mutations_incrementally() {
        let mut state = WorldState::with_balances((0..100).map(|s| (Address::from_seed(s), 1000)));
        let before = state.sharded_root();
        assert_eq!(state.dirty_buckets(), 0, "roots cached after computing");

        let alice = Keypair::from_seed(1);
        state
            .apply(
                &transfer(&alice, Address::from_seed(2), 10, 1, 0),
                Address::from_seed(99),
            )
            .expect("valid");
        let touched = state.dirty_buckets();
        assert!(
            (1..=3).contains(&touched),
            "a transfer touches at most sender+recipient+collector buckets, got {touched}"
        );
        let after = state.sharded_root();
        assert_ne!(before, after, "v2 root must react to mutation");

        // A from-scratch rebuild of the same contents agrees — the
        // incremental accumulators match a full recompute.
        let mut rebuilt = WorldState::with_balances(
            state
                .accounts()
                .map(|(a, st)| (*a, st.balance))
                .collect::<Vec<_>>(),
        );
        // Replay the nonce bump the transfer made.
        let replayed = state.nonce(&Address::from_seed(1));
        assert_eq!(replayed, 1);
        rebuilt.update_account(Address::from_seed(1), |acct| acct.nonce = 1);
        assert_eq!(rebuilt.sharded_root(), after);
    }
}
