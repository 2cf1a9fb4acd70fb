//! Virtual-organisation policy engine: users, quotas, feasibility.
//!
//! Grid resources "have decentralized ownership and different local
//! scheduling policies dependent on their VO" (§1); SPHINX must enforce
//! "complex policy issues like hard disk quota and the CPU time quota used
//! by the grid user — no such accounting exists currently in the grid"
//! (§2). The paper's policy-constrained scheduling (eq. 4) restricts each
//! strategy to sites where the user's remaining usage quota covers the
//! job's requirement:
//!
//! > *site s such that: quotaᵢˢ ≥ requiredᵢˢ for every resource i*
//!
//! This crate provides that accounting:
//!
//! * [`PolicyEngine`] — the registry of virtual organisations and users,
//!   each holding per-site [`QuotaAccount`]s for CPU-seconds and disk.
//! * [`PolicyEngine::feasible_sites`] — the eq. 4 filter applied before
//!   any scheduling strategy runs (Figure 7's experiment).
//! * Reserve / commit / release — quota is *reserved* when a job is
//!   planned, *committed* (charged at actual usage) when it completes and
//!   *released* (refunded) when it fails, so crashed jobs do not leak
//!   quota.

use serde::{Deserialize, Serialize};
use sphinx_data::SiteId;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a grid user (a "production manager" in the paper's §2).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct UserId(pub u32);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user{}", self.0)
    }
}

/// Identifier of a virtual organisation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct VoId(pub u32);

impl fmt::Display for VoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vo{}", self.0)
    }
}

/// Resource amounts a job needs (or a quota grants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Requirement {
    /// CPU time, in seconds on the reference CPU.
    pub cpu_seconds: u64,
    /// Disk space, in MB.
    pub disk_mb: u64,
}

impl Requirement {
    /// A requirement.
    pub fn new(cpu_seconds: u64, disk_mb: u64) -> Self {
        Requirement {
            cpu_seconds,
            disk_mb,
        }
    }

    /// Component-wise `self + other`.
    pub fn plus(self, other: Requirement) -> Requirement {
        Requirement {
            cpu_seconds: self.cpu_seconds + other.cpu_seconds,
            disk_mb: self.disk_mb + other.disk_mb,
        }
    }

    /// Component-wise saturating `self - other`.
    pub fn minus(self, other: Requirement) -> Requirement {
        Requirement {
            cpu_seconds: self.cpu_seconds.saturating_sub(other.cpu_seconds),
            disk_mb: self.disk_mb.saturating_sub(other.disk_mb),
        }
    }

    /// True if every component of `self` covers `other`.
    pub fn covers(self, other: Requirement) -> bool {
        self.cpu_seconds >= other.cpu_seconds && self.disk_mb >= other.disk_mb
    }
}

/// One quota account: granted, used, reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QuotaAccount {
    /// Total allocation.
    pub granted: Requirement,
    /// Charged by completed jobs.
    pub used: Requirement,
    /// Held by planned-but-unfinished jobs.
    pub reserved: Requirement,
}

impl QuotaAccount {
    /// An account with the given grant.
    pub fn new(granted: Requirement) -> Self {
        QuotaAccount {
            granted,
            ..QuotaAccount::default()
        }
    }

    /// What is still available to new plans.
    pub fn remaining(&self) -> Requirement {
        self.granted.minus(self.used).minus(self.reserved)
    }
}

/// Why a policy operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The user is not registered.
    UnknownUser(UserId),
    /// The user has no allocation at this site at all.
    NoAllocation { user: UserId, site: SiteId },
    /// The remaining quota does not cover the requirement.
    InsufficientQuota {
        /// Who.
        user: UserId,
        /// Where.
        site: SiteId,
        /// What was left.
        remaining: Requirement,
        /// What was asked.
        required: Requirement,
    },
    /// Unknown reservation id (double commit/release).
    UnknownReservation(u64),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::UnknownUser(u) => write!(f, "unknown user {u}"),
            PolicyError::NoAllocation { user, site } => {
                write!(f, "{user} has no allocation at {site}")
            }
            PolicyError::InsufficientQuota {
                user,
                site,
                remaining,
                required,
            } => write!(
                f,
                "{user} at {site}: remaining {remaining:?} < required {required:?}"
            ),
            PolicyError::UnknownReservation(id) => write!(f, "unknown reservation {id}"),
        }
    }
}

impl std::error::Error for PolicyError {}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct UserPolicy {
    vo: VoId,
    priority: u32,
    quotas: BTreeMap<SiteId, QuotaAccount>,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Reservation {
    user: UserId,
    site: SiteId,
    amount: Requirement,
}

/// The policy engine.
#[derive(Debug, Clone, Default)]
pub struct PolicyEngine {
    users: BTreeMap<UserId, UserPolicy>,
    vo_names: BTreeMap<VoId, String>,
    reservations: BTreeMap<u64, Reservation>,
    next_reservation: u64,
}

impl PolicyEngine {
    /// An empty engine (every feasibility check fails until users are
    /// registered).
    pub fn new() -> Self {
        PolicyEngine::default()
    }

    /// Register a virtual organisation.
    pub fn add_vo(&mut self, vo: VoId, name: impl Into<String>) {
        self.vo_names.insert(vo, name.into());
    }

    /// Register a user in a VO with a scheduling priority (higher = more
    /// important; strategies may use it for tie-breaking).
    pub fn add_user(&mut self, user: UserId, vo: VoId, priority: u32) {
        self.users.insert(
            user,
            UserPolicy {
                vo,
                priority,
                quotas: BTreeMap::new(),
            },
        );
    }

    /// Grant (or replace) the user's allocation at a site.
    pub fn grant(&mut self, user: UserId, site: SiteId, granted: Requirement) {
        if let Some(up) = self.users.get_mut(&user) {
            up.quotas.insert(site, QuotaAccount::new(granted));
        }
    }

    /// The user's priority, if registered.
    pub fn priority_of(&self, user: UserId) -> Option<u32> {
        self.users.get(&user).map(|u| u.priority)
    }

    /// The user's account at a site.
    pub fn account(&self, user: UserId, site: SiteId) -> Option<QuotaAccount> {
        self.users.get(&user)?.quotas.get(&site).copied()
    }

    /// Eq. 4: the subset of `sites` where the user's remaining quota
    /// covers `required`. A user unknown to the engine gets no sites; a
    /// site with no allocation is infeasible.
    pub fn feasible_sites(
        &self,
        user: UserId,
        required: Requirement,
        sites: &[SiteId],
    ) -> Vec<SiteId> {
        let Some(up) = self.users.get(&user) else {
            return Vec::new();
        };
        sites
            .iter()
            .copied()
            .filter(|site| {
                up.quotas
                    .get(site)
                    .is_some_and(|acct| acct.remaining().covers(required))
            })
            .collect()
    }

    /// Reserve quota for a planned job. Returns the reservation id.
    pub fn reserve(
        &mut self,
        user: UserId,
        site: SiteId,
        amount: Requirement,
    ) -> Result<u64, PolicyError> {
        let up = self
            .users
            .get_mut(&user)
            .ok_or(PolicyError::UnknownUser(user))?;
        let acct = up
            .quotas
            .get_mut(&site)
            .ok_or(PolicyError::NoAllocation { user, site })?;
        let remaining = acct.remaining();
        if !remaining.covers(amount) {
            return Err(PolicyError::InsufficientQuota {
                user,
                site,
                remaining,
                required: amount,
            });
        }
        acct.reserved = acct.reserved.plus(amount);
        let id = self.next_reservation;
        self.next_reservation += 1;
        self.reservations
            .insert(id, Reservation { user, site, amount });
        Ok(id)
    }

    /// The job completed: charge actual usage, release the reservation.
    /// Actual usage above the reservation is still charged (the job ran;
    /// the books must balance), which can push the account negative-ish —
    /// i.e. `remaining` saturates at zero and future plans are blocked.
    pub fn commit(&mut self, reservation: u64, actual: Requirement) -> Result<(), PolicyError> {
        let r = self
            .reservations
            .remove(&reservation)
            .ok_or(PolicyError::UnknownReservation(reservation))?;
        if let Some(acct) = self
            .users
            .get_mut(&r.user)
            .and_then(|u| u.quotas.get_mut(&r.site))
        {
            acct.reserved = acct.reserved.minus(r.amount);
            acct.used = acct.used.plus(actual);
        }
        Ok(())
    }

    /// The job failed or was cancelled: refund the whole reservation.
    pub fn release(&mut self, reservation: u64) -> Result<(), PolicyError> {
        let r = self
            .reservations
            .remove(&reservation)
            .ok_or(PolicyError::UnknownReservation(reservation))?;
        if let Some(acct) = self
            .users
            .get_mut(&r.user)
            .and_then(|u| u.quotas.get_mut(&r.site))
        {
            acct.reserved = acct.reserved.minus(r.amount);
        }
        Ok(())
    }

    /// Number of outstanding reservations.
    pub fn outstanding_reservations(&self) -> usize {
        self.reservations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn engine_with_user() -> PolicyEngine {
        let mut e = PolicyEngine::new();
        e.add_vo(VoId(0), "uscms");
        e.add_user(UserId(1), VoId(0), 10);
        e.grant(UserId(1), SiteId(0), Requirement::new(3600, 1000));
        e.grant(UserId(1), SiteId(1), Requirement::new(60, 10));
        e
    }

    #[test]
    fn feasibility_filters_by_remaining_quota() {
        let e = engine_with_user();
        let sites = [SiteId(0), SiteId(1), SiteId(2)];
        let need = Requirement::new(120, 100);
        // Site 0 has plenty; site 1 is too small; site 2 has no allocation.
        assert_eq!(e.feasible_sites(UserId(1), need, &sites), vec![SiteId(0)]);
    }

    #[test]
    fn unknown_user_gets_nothing() {
        let e = engine_with_user();
        assert!(e
            .feasible_sites(UserId(9), Requirement::default(), &[SiteId(0)])
            .is_empty());
    }

    #[test]
    fn reserve_blocks_concurrent_overcommit() {
        let mut e = engine_with_user();
        let need = Requirement::new(2000, 600);
        let _r1 = e.reserve(UserId(1), SiteId(0), need).unwrap();
        // Remaining is now 1600 cpu / 400 disk: a second identical
        // reservation must fail (eq. 4 applied against *remaining*).
        let err = e.reserve(UserId(1), SiteId(0), need).unwrap_err();
        assert!(matches!(err, PolicyError::InsufficientQuota { .. }));
        assert!(e.feasible_sites(UserId(1), need, &[SiteId(0)]).is_empty());
    }

    #[test]
    fn commit_charges_actual_usage() {
        let mut e = engine_with_user();
        let r = e
            .reserve(UserId(1), SiteId(0), Requirement::new(100, 50))
            .unwrap();
        e.commit(r, Requirement::new(80, 50)).unwrap();
        let acct = e.account(UserId(1), SiteId(0)).unwrap();
        assert_eq!(acct.used, Requirement::new(80, 50));
        assert_eq!(acct.reserved, Requirement::default());
        assert_eq!(acct.remaining(), Requirement::new(3520, 950));
        assert_eq!(e.outstanding_reservations(), 0);
    }

    #[test]
    fn release_refunds_everything() {
        let mut e = engine_with_user();
        let before = e.account(UserId(1), SiteId(0)).unwrap();
        let r = e
            .reserve(UserId(1), SiteId(0), Requirement::new(100, 50))
            .unwrap();
        e.release(r).unwrap();
        assert_eq!(e.account(UserId(1), SiteId(0)).unwrap(), before);
    }

    #[test]
    fn double_commit_or_release_fails() {
        let mut e = engine_with_user();
        let r = e
            .reserve(UserId(1), SiteId(0), Requirement::new(1, 1))
            .unwrap();
        e.commit(r, Requirement::new(1, 1)).unwrap();
        assert!(matches!(
            e.commit(r, Requirement::default()),
            Err(PolicyError::UnknownReservation(_))
        ));
        assert!(matches!(
            e.release(r),
            Err(PolicyError::UnknownReservation(_))
        ));
    }

    #[test]
    fn reserve_at_unallocated_site_fails() {
        let mut e = engine_with_user();
        let err = e
            .reserve(UserId(1), SiteId(5), Requirement::new(1, 1))
            .unwrap_err();
        assert!(matches!(err, PolicyError::NoAllocation { .. }));
        let err = e
            .reserve(UserId(9), SiteId(0), Requirement::new(1, 1))
            .unwrap_err();
        assert!(matches!(err, PolicyError::UnknownUser(_)));
    }

    #[test]
    fn metadata_lookups() {
        let e = engine_with_user();
        assert_eq!(e.priority_of(UserId(1)), Some(10));
        assert_eq!(e.priority_of(UserId(2)), None);
    }

    #[test]
    fn requirement_arithmetic() {
        let a = Requirement::new(10, 5);
        let b = Requirement::new(4, 9);
        assert_eq!(a.plus(b), Requirement::new(14, 14));
        assert_eq!(a.minus(b), Requirement::new(6, 0));
        assert!(a.covers(Requirement::new(10, 5)));
        assert!(!a.covers(b));
    }

    proptest! {
        /// A reserve followed by release is always a no-op on the account.
        #[test]
        fn prop_reserve_release_identity(cpu in 0u64..3600, disk in 0u64..1000) {
            let mut e = engine_with_user();
            let before = e.account(UserId(1), SiteId(0)).unwrap();
            if let Ok(r) = e.reserve(UserId(1), SiteId(0), Requirement::new(cpu, disk)) {
                e.release(r).unwrap();
            }
            prop_assert_eq!(e.account(UserId(1), SiteId(0)).unwrap(), before);
        }

        /// used + remaining + reserved always equals granted (given no
        /// over-commit), under random reserve/commit/release sequences.
        #[test]
        fn prop_books_balance(ops in proptest::collection::vec((0u8..3, 1u64..500, 1u64..200), 0..50)) {
            let mut e = PolicyEngine::new();
            e.add_user(UserId(1), VoId(0), 1);
            e.grant(UserId(1), SiteId(0), Requirement::new(100_000, 50_000));
            let mut live: Vec<u64> = Vec::new();
            for (op, cpu, disk) in ops {
                match op {
                    0 => {
                        if let Ok(r) = e.reserve(UserId(1), SiteId(0), Requirement::new(cpu, disk)) {
                            live.push(r);
                        }
                    }
                    1 => {
                        if let Some(r) = live.pop() {
                            // Commit at exactly the reserved amount keeps
                            // the invariant exact.
                            let amount = e.reservations[&r].amount;
                            e.commit(r, amount).unwrap();
                        }
                    }
                    _ => {
                        if let Some(r) = live.pop() {
                            e.release(r).unwrap();
                        }
                    }
                }
                let acct = e.account(UserId(1), SiteId(0)).unwrap();
                let total = acct.used.plus(acct.reserved).plus(acct.remaining());
                prop_assert_eq!(total, acct.granted);
            }
        }
    }
}
