//! A known law fact is looked up without allocating: the operator auditor
//! is consulted by the linter's law gate on every window saturation tries,
//! so its hit path is on every cold request. Counted by this binary's own
//! allocator, on this thread only.

use collopt_analysis::audit::{audit_law, AuditConfig, Domain};
use collopt_core::op::{lib, RequiredLaw};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

#[test]
fn a_known_library_law_is_looked_up_without_allocating() {
    let cfg = AuditConfig::default();
    let laws = [
        RequiredLaw::Associative(lib::add()),
        RequiredLaw::Commutative(lib::max()),
        RequiredLaw::DistributesOver(lib::mul(), lib::add()),
    ];
    for law in &laws {
        assert!(audit_law(law, Domain::Int, &cfg).is_none(), "{law:?}");
    }
    for law in &laws {
        let (fact, allocs) = allocations(|| audit_law(law, Domain::Int, &cfg));
        assert!(fact.is_none(), "{law:?}");
        assert_eq!(allocs, 0, "looking up {}", law.describe());
    }
}
