//! Canonicalization hardening: specs that differ only in whitespace,
//! spelling, or normalization order must produce identical cache keys.
//!
//! The cache key is the canonical program rendering plus the machine
//! and option fields ([`collopt_serve::cache_key`]); everything here
//! pins the *canonical rendering* half over the `examples/pipelines/`
//! corpus and hand-built equivalence pairs.

use collopt_serve::{cache_key, canonicalize, OptimizeRequest};

fn req(pipeline: &str) -> OptimizeRequest {
    OptimizeRequest {
        pipeline: pipeline.into(),
        p: 64,
        ts: 200.0,
        tw: 2.0,
        m: 32.0,
        all_ranks: false,
        lint: true,
        simulate: false,
    }
}

fn key(pipeline: &str) -> String {
    cache_key(&req(pipeline)).unwrap_or_else(|e| panic!("'{pipeline}' must canonicalize: {e}"))
}

/// Every `.pipeline` file in the corpus.
fn corpus() -> Vec<(String, String)> {
    let root = format!("{}/../../examples/pipelines", env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for sub in ["clean", "lints"] {
        let dir = format!("{root}/{sub}");
        let mut entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("missing corpus dir {dir}: {e}"))
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "pipeline"))
            .collect();
        entries.sort();
        for path in entries {
            let src = std::fs::read_to_string(&path).unwrap().trim().to_string();
            out.push((path.display().to_string(), src));
        }
    }
    assert!(out.len() >= 8, "corpus shrank: {}", out.len());
    out
}

#[test]
fn whitespace_variants_share_a_key_across_the_corpus() {
    for (path, src) in corpus() {
        let base = key(&src);
        // Inflate separators and pad the ends; the grammar treats all
        // whitespace runs alike, so the parsed term is unchanged.
        let spaced = format!("   {}   ", src.replace(';', "  ;\t "));
        assert_eq!(base, key(&spaced), "whitespace changed the key for {path}");
        let collapsed = src.replace(" ; ", ";");
        assert_eq!(
            base,
            key(&collapsed),
            "separator style changed the key for {path}"
        );
    }
}

#[test]
fn canonical_rendering_is_a_fixpoint_across_the_corpus() {
    for (path, src) in corpus() {
        let (canonical, rendered) = canonicalize(&src).unwrap();
        // Canonicalizing may fuse map labels (`map f;g`) or eliminate
        // everything (`gather ; scatter` → the empty program `id`),
        // neither of which re-parses — so round-trip through the
        // *rendering* only where it stays inside the grammar.
        if let Ok((twice, rendered_twice)) = canonicalize(&rendered) {
            assert_eq!(
                rendered, rendered_twice,
                "canonicalization is not idempotent for {path}"
            );
            assert_eq!(
                canonical.to_string(),
                twice.to_string(),
                "re-parsed canonical program differs for {path}"
            );
        }
        // Idempotence on the term itself always holds.
        let (again, _) = collopt_core::rules::enabling::normalize(&canonical);
        assert_eq!(
            again.to_string(),
            canonical.to_string(),
            "normalize is not a fixpoint for {path}"
        );
    }
}

#[test]
fn normalization_order_variants_share_a_key() {
    // bcast/map commutation: both spellings reach `map f ; bcast ; …`.
    assert_eq!(
        key("bcast ; map f ; reduce(add)"),
        key("map f ; bcast ; reduce(add)")
    );
    // gather;scatter elimination, applied once or twice over.
    assert_eq!(key("gather ; scatter ; scan(add)"), key("scan(add)"));
    assert_eq!(
        key("gather ; scatter ; gather ; scatter ; scan(add)"),
        key("scan(add)")
    );
    // Interleaved: eliminating the round-trip exposes the map pair,
    // which fuses — equivalent to writing the fused pipeline directly.
    assert_eq!(
        key("map f ; gather ; scatter ; map g ; reduce(add)"),
        key("map f ; map g ; reduce(add)")
    );
}

#[test]
fn distinct_pipelines_and_machines_get_distinct_keys() {
    assert_ne!(
        key("scan(add) ; reduce(add)"),
        key("scan(mul) ; reduce(add)")
    );
    let base = req("scan(add) ; reduce(add)");
    let base_key = cache_key(&base).unwrap();
    for (label, tweak) in [
        ("p", {
            let mut r = base.clone();
            r.p = 128;
            r
        }),
        ("ts", {
            let mut r = base.clone();
            r.ts = 100.0;
            r
        }),
        ("m", {
            let mut r = base.clone();
            r.m = 8.0;
            r
        }),
        ("all_ranks", {
            let mut r = base.clone();
            r.all_ranks = true;
            r
        }),
        ("lint", {
            let mut r = base.clone();
            r.lint = false;
            r
        }),
        ("simulate", {
            let mut r = base.clone();
            r.simulate = true;
            r
        }),
    ] {
        assert_ne!(
            base_key,
            cache_key(&tweak).unwrap(),
            "option '{label}' must be part of the cache key"
        );
    }
}

#[test]
fn float_params_key_by_bit_pattern() {
    // `2` and `2.0` parse to the same f64 → same key; a genuinely
    // different value → different key.
    let mut a = req("scan(add) ; reduce(add)");
    a.tw = 2.0;
    let mut b = a.clone();
    b.tw = 2.0f64;
    assert_eq!(cache_key(&a).unwrap(), cache_key(&b).unwrap());
    b.tw = 2.0000001;
    assert_ne!(cache_key(&a).unwrap(), cache_key(&b).unwrap());
}
