// The metric tables: every name a run prints, with its unit. Trace-0 runs
// print the end-to-end table, trace-1 runs the per-layer table, on every
// workload. A per-layer metric of a layer that is not on a workload's
// request path reads 0 there (NOTES.md lists which apply where).
#ifndef REPOBENCH_METRICS_H_
#define REPOBENCH_METRICS_H_

#include <map>
#include <string>
#include <vector>

namespace repobench {

struct MetricDef {
  const char* name;
  const char* unit;
};

using Values = std::map<std::string, double>;

inline const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kTable = {
      {"ops_per_s", "1/s"},
      {"op_p50_us", "us"},
      {"op_p99_us", "us"},
      {"footprint_ratio_peak", "ratio"},
      {"write_amp", "ratio"},
      {"max_op_write_bytes", "bytes"},
      {"recovery_s", "s"},
      {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return kTable;
}

inline const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kTable = {
      {"core.self_s", "s"},
      {"core.flushes", "count"},
      {"core.flush_s", "s"},
      {"storage.place_s", "s"},
      {"storage.remove_s", "s"},
      {"storage.apply_moves_s", "s"},
      {"storage.move_batches", "count"},
      {"storage.moved_bytes", "bytes"},
      {"storage.lookup_s", "s"},
      {"storage.checkpoint_s", "s"},
      {"storage.checkpoints", "count"},
      {"cost.ratio.linear", "ratio"},
      {"cost.ratio.constant", "ratio"},
      {"cost.ratio.affine", "ratio"},
      {"cost.ratio.sqrt", "ratio"},
      {"cost.ratio.log", "ratio"},
      {"cost.ratio.capped", "ratio"},
      {"db.put_self_s", "s"},
      {"db.lookup_self_s", "s"},
      {"db.snapshots", "count"},
      {"durability.records", "count"},
      {"durability.log_bytes_per_user_byte", "ratio"},
      {"durability.syncs", "count"},
      {"durability.sync_s", "s"},
      {"durability.compactions", "count"},
      {"durability.rung_s", "s"},
      {"recovery.records_replayed", "count"},
      {"recovery.records_per_s", "1/s"},
      {"service.submit_s", "s"},
      {"service.drain_wait_s", "s"},
      {"service.queue_wait_p50_us", "us"},
      {"service.service_p50_us", "us"},
      {"service.service_p99_us", "us"},
      {"service.worker_busy_frac", "ratio"},
      {"service.ops_per_remote_batch", "ratio"},
      {"service.shard_ops_max_over_mean", "ratio"},
      {"service.rung.bare_s", "s"},
      {"service.rung.sync_k8_s", "s"},
      {"alloc.self_s", "s"},
      {"workload.gen_s", "s"},
      {"setup.build_s", "s"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kTable;
}

}  // namespace repobench

#endif  // REPOBENCH_METRICS_H_
