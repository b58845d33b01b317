// The four workloads and the metric catalogue they report into.
#pragma once

#include "common.h"

namespace adafl::bench {

/// Workloads in the order `--workload=all` runs them.
inline constexpr const char* kWorkloads[] = {"sim_cnn", "fleet_1k", "tier_1k",
                                             "lossy_udp"};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, measured on untraced runs.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"round_s_p50", "s"},
    {"round_s_p75", "s"},
    {"cpu_s_per_round", "s"},
    {"up_bytes_per_round", "B"},
    {"down_bytes_per_round", "B"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, from traced runs; per-round means unless a rate or
/// ratio. Times and rates are measured on every workload (a bypassed layer
/// is replayed on the workload's data); counts of events a workload never
/// has are 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"fl.train_ms", "ms"},
    {"tensor.allocs_per_round", "count"},
    {"compress.dgc_ms", "ms"},
    {"core.score_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"core.apply_ms", "ms"},
    {"nn.eval_ms", "ms"},
    {"frame.model_encode_ms", "ms"},
    {"frame.crc_mb_per_s", "MB/s"},
    {"frame.parse_mb_per_s", "MB/s"},
    {"codec.update_decode_ms", "ms"},
    {"transport.send_ms", "ms"},
    {"transport.send_frames", "count"},
    {"transport.send_bytes", "B"},
    {"transport.recv_ms", "ms"},
    {"transport.recv_calls", "count"},
    {"transport.recv_frames", "count"},
    {"transport.recv_hit_ratio", "ratio"},
    {"session.other_ms", "ms"},
    {"session.resends", "count"},
    {"fec.datagrams_sent", "count"},
    {"fec.datagrams_lost", "count"},
    {"fec.datagrams_repaired", "count"},
    {"fec.unrecoverable_generations", "count"},
    {"fec.parity_overhead", "ratio"},
    {"fec.fragment_mb_per_s", "MB/s"},
    {"fec.reassemble_mb_per_s", "MB/s"},
    {"relay.agg_frames", "count"},
    {"relay.up_bytes", "B"},
    {"relay.child_recv_hit_ratio", "ratio"},
    {"relay.partial_sum_ms", "ms"},
    {"relay.agg_codec_ms", "ms"},
    {"gen.busy_share", "ratio"},
    {"proc.threads_max", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage", "ratio"},
};

/// Sets every per-layer metric to 0 with its unit; a workload then
/// overwrites the ones its layers produce.
void declare_layer_metrics(Result& r);

Result run_sim(const Options& opt);
Result run_deployed(const Options& opt);

}  // namespace adafl::bench
