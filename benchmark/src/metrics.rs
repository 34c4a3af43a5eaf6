//! The metric tables, mirrored by `BENCHMARK.json` (a unit test holds the
//! two together).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))] // BENCHMARK.json states it
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s_refclock",
        higher_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us_refclock",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "latency_p90_us",
        unit: "us_refclock",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        higher_is_better: false,
        bound: 0.01,
    },
    EndToEnd {
        name: "alloc_kb_per_op",
        unit: "KB",
        higher_is_better: false,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
];

/// `(name, unit, higher is better)`. A traced run prints every one of
/// them; a layer the workload never enters reads 0.
pub const PER_LAYER: [(&str, &str, bool); 53] = [
    ("serve.request.parse_us", "us", false),
    ("serve.request.ok_response_us", "us", false),
    ("core.parser.parse_us", "us", false),
    ("core.enabling.normalize_us", "us", false),
    ("serve.service.key_render_us", "us", false),
    ("serve.cache.lookup_us", "us", false),
    ("serve.cache.insert_evict_us", "us", false),
    ("serve.cache.hit_rate", "ratio", true),
    ("serve.cache.evictions_per_op", "count", false),
    ("core.egraph.saturate_us", "us", false),
    ("core.egraph.saturate_allocs", "count", false),
    ("core.egraph.nodes_per_op", "count", false),
    ("core.egraph.classes_per_op", "count", false),
    ("core.egraph.rule_applications_per_op", "count", false),
    ("core.egraph.replay_states_per_op", "count", false),
    ("core.egraph.budget_exhausted_share", "ratio", false),
    ("core.report.result_json_us", "us", false),
    ("core.report.result_json_allocs", "count", false),
    ("analysis.lint.lint_program_us", "us", false),
    ("analysis.lint.lint_program_allocs", "count", false),
    ("analysis.lint.render_json_us", "us", false),
    ("analysis.lint.diagnostics_per_op", "count", false),
    ("machine.json.parse_us", "us", false),
    ("machine.json.render_us", "us", false),
    ("machine.json.allocs", "count", false),
    ("serve.service.handle_line_us", "us", false),
    ("serve.service.handle_line_allocs", "count", false),
    ("serve.service.unattributed_share", "ratio", false),
    ("serve.server.transport_us", "us", false),
    ("serve.server.response_bytes_per_op", "B", false),
    ("core.exec.execute_us", "us", false),
    ("core.exec.allocs_per_run", "count", false),
    ("core.exec.overhead_share", "ratio", false),
    ("machine.des.bare_run_us", "us", false),
    ("machine.des.empty_run_us", "us", false),
    ("machine.des.ns_per_msg", "ns", false),
    ("machine.des.msgs_per_s", "1/s", true),
    ("machine.des.allocs_per_msg", "count", false),
    ("machine.trace.traced_overhead_share", "ratio", false),
    ("machine.profile.critical_path_us", "us", false),
    ("machine.chrome.export_us", "us", false),
    ("machine.sim.messages_per_op", "count", false),
    ("machine.sim.makespan_sum", "count", false),
    ("collectives.schedule.extract_us", "us", false),
    ("collectives.schedule.extract_ns_per_msg", "ns", false),
    ("collectives.schedule.extract_allocs", "count", false),
    ("collectives.schedule.msgs_per_op", "count", false),
    ("analysis.schedule.verify_us", "us", false),
    ("analysis.schedule.verify_ns_per_msg", "ns", false),
    ("analysis.schedule.verify_allocs", "count", false),
    ("analysis.schedule.planted_rejected", "count", true),
    ("analysis.schedule.render_json_us", "us", false),
    ("trace.overhead_share", "ratio", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use collopt_machine::Json;

    fn entries(doc: &Json, key: &str) -> Vec<(String, String, bool, Option<f64>)> {
        let text = |entry: &Json, field: &str| {
            entry.get(field).and_then(Json::as_str).unwrap().to_string()
        };
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                (
                    text(e, "name"),
                    text(e, "unit"),
                    text(e, "better") == "higher",
                    e.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.higher_is_better,
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(entries(&doc, "end_to_end"), end_to_end);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|(name, unit, higher)| (name.to_string(), unit.to_string(), *higher, None))
            .collect();
        assert_eq!(entries(&doc, "per_layer"), per_layer);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
