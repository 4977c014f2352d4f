#include "workloads.h"

#include "cosr/durability/recovery_manager.h"
#include "cosr/storage/address_space.h"

namespace repobench {

void FinishTimedPhase(std::uint64_t start_ns,
                      std::vector<std::uint64_t>& latency, Round* round) {
  round->timed_s = SecondsSince(start_ns);
  round->ops_per_s = static_cast<double>(latency.size()) / round->timed_s;
  round->p50_us = Quantile(latency, 0.50) / 1e3;
  round->p99_us = Quantile(latency, 0.99) / 1e3;
}

double MedianOf(const std::vector<Round>& rounds, double Round::*field) {
  std::vector<double> column;
  for (const Round& round : rounds) column.push_back(round.*field);
  return Median(column);
}

void EndToEndValues(const std::vector<Round>& plain, const Values& counts,
                    double recovery_s, double rss_mb, Values* values) {
  Values& v = *values;
  v["ops_per_s"] = MedianOf(plain, &Round::ops_per_s);
  v["op_p50_us"] = MedianOf(plain, &Round::p50_us);
  v["op_p99_us"] = MedianOf(plain, &Round::p99_us);
  for (const char* name :
       {"footprint_ratio_peak", "write_amp", "max_op_write_bytes"}) {
    v[name] = counts.at(name);
  }
  v["recovery_s"] = recovery_s;
  v["peak_rss_mb"] = rss_mb;
  v["setup_s"] = MedianOf(plain, &Round::setup_s);
}

void SharedLayerValues(const std::vector<Round>& plain,
                       const std::vector<Round>& traced, const Values& counts,
                       Values* values) {
  std::map<std::string, std::vector<double>> columns;
  for (const Round& round : traced) {
    for (const auto& [name, value] : round.layers) {
      columns[name].push_back(value);
    }
  }
  Values& v = *values;
  for (const auto& [name, column] : columns) v[name] = Median(column);
  for (const MetricDef& def : PerLayerMetrics()) {
    const auto it = counts.find(def.name);
    if (it != counts.end()) v[def.name] = it->second;
  }
  v["workload.gen_s"] = MedianOf(plain, &Round::gen_s);
  v["setup.build_s"] = MedianOf(plain, &Round::build_s);
  v["trace.overhead_ratio"] =
      MedianOf(plain, &Round::ops_per_s) / MedianOf(traced, &Round::ops_per_s);
}

void StorageSpanValues(const Tracer& tracer, Values* values) {
  Values& v = *values;
  v["storage.place_s"] = tracer.total_s(kStoragePlace);
  v["storage.remove_s"] = tracer.total_s(kStorageRemove);
  v["storage.apply_moves_s"] = tracer.total_s(kStorageApplyMoves);
  v["storage.move_batches"] =
      static_cast<double>(tracer.at(kStorageApplyMoves).count);
  v["storage.lookup_s"] = tracer.total_s(kStorageLookup);
  v["storage.checkpoint_s"] = tracer.total_s(kStorageCheckpoint);
  v["storage.checkpoints"] =
      static_cast<double>(tracer.at(kStorageCheckpoint).count);
}

cosr::Status Apply(cosr::Reallocator* realloc, const cosr::Request& request) {
  return request.type == cosr::Request::Type::kInsert
             ? realloc->Insert(request.id, request.size)
             : realloc->Delete(request.id);
}

cosr::Trace TracePrefix(const cosr::Trace& trace, std::size_t count) {
  cosr::Trace prefix;
  for (std::size_t i = 0; i < count; ++i) prefix.Add(trace.requests()[i]);
  return prefix;
}

RecoveryFigures TimedRecovery(
    const std::vector<const cosr::MemoryLogSink*>& logs,
    const std::vector<ExtentMap>& expected, const std::string& workload,
    Report* report) {
  constexpr int kRepeats = 9;
  RecoveryFigures figures;
  std::vector<double> seconds;
  for (int r = 0; r < kRepeats; ++r) {
    double total = 0;
    figures.records = 0;
    for (std::size_t i = 0; i < logs.size(); ++i) {
      const std::vector<std::uint8_t>& data = logs[i]->data();
      cosr::AddressSpace recovered;
      cosr::RecoveryResult result;
      const std::uint64_t start = NowNs();
      const cosr::Status status = cosr::RecoveryManager::Recover(
          data.data(), data.size(), &recovered, &result);
      total += SecondsSince(start);
      figures.records += result.records_replayed;
      if (r == 0 && (!status.ok() || recovered.Snapshot() != expected[i])) {
        report->Fail(workload + ": log " + std::to_string(i) +
                     " recovered map differs from the live map (" +
                     status.ToString() + ")");
      }
    }
    seconds.push_back(total);
  }
  figures.seconds = Median(seconds);
  return figures;
}

void RecoveryLayerValues(const RecoveryFigures& recovery, Values* values) {
  (*values)["recovery.records_replayed"] =
      static_cast<double>(recovery.records);
  (*values)["recovery.records_per_s"] =
      static_cast<double>(recovery.records) / recovery.seconds;
}

Values ReportCounts(const cosr::RunReport& run) {
  Values counts;
  counts["footprint_ratio_peak"] =
      static_cast<double>(run.max_reserved_footprint) /
      static_cast<double>(run.max_volume);
  counts["write_amp"] =
      static_cast<double>(run.bytes_placed + run.bytes_moved) /
      static_cast<double>(run.bytes_placed);
  counts["max_op_write_bytes"] = run.function("linear")->max_op_cost;
  for (const cosr::FunctionReport& fn : run.functions) {
    counts["cost.ratio." + fn.name] = fn.cost_ratio;
  }
  return counts;
}

}  // namespace repobench
