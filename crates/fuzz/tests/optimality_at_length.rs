//! Optimality at any length: the brute-force oracle stops at 6 stages, so
//! these checks compare the optimizer with itself and with closed forms
//! on chains of up to 64 stages (`collopt_fuzz::oracle`, beside oracle 4).

use collopt_fuzz::{
    check_extracted_cost, check_periodic, check_split, long_chain, long_chain_machine, Periodic,
};

#[test]
fn split_subadditivity_holds_on_seeded_long_chains() {
    let (params, m) = long_chain_machine();
    for seed in 0..24 {
        let (prog, at) = long_chain(seed);
        assert!((7..=64).contains(&prog.len()));
        check_split(&prog, at, &params, m).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn the_26_scan_chain_is_not_beaten_by_its_optimized_halves() {
    let (params, m) = long_chain_machine();
    let prog = Periodic::Scans.chain(26);
    for at in [12, 13, 14] {
        check_split(&prog, at, &params, m).unwrap();
    }
}

#[test]
fn the_returned_plan_costs_what_extraction_chose() {
    let (params, m) = long_chain_machine();
    for seed in 0..24 {
        let (prog, _) = long_chain(seed);
        check_extracted_cost(&prog, &params, m).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    for n in [1, 7, 26, 64] {
        for family in [Periodic::Scans, Periodic::Alternating] {
            check_extracted_cost(&family.chain(n), &params, m).unwrap();
        }
    }
}

#[test]
fn periodic_chains_meet_their_closed_forms_at_every_length() {
    let (params, m) = long_chain_machine();
    for n in 1..=64 {
        for family in [Periodic::Scans, Periodic::Alternating] {
            check_periodic(family, n, &params, m).unwrap();
        }
    }
    // The figures the closed form stands for at n = 26.
    assert_eq!(Periodic::Scans.optimum(26, &params, m), (50_544.0, 13));
}
