// EXP-ADDRESS-SPACE — op-level AddressSpace microbench (slot table + paged
// offset index) at 1e3..1e6 live objects, for the three primitive ops and
// for the move-storm workload shaped like the paper's flush procedures
// (crunch right, unpack left — the Figure 3 traffic), per-move Move vs
// batched ApplyMoves, with and without a checkpoint manager.
//
// Writes BENCH_address_space.json (run from the repo root to refresh the
// committed artifact). The exit code is a correctness gate, not a speed
// gate: after every storm SelfCheck() must pass, and the per-move and
// batched storms of each checkpoint setting must end in identical
// Snapshot()s. The batched/per-move throughput ratio is recorded for
// information only.
//
// Usage: exp_address_space [--smoke]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"

namespace cosr {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kLength = 8;   // object size
constexpr std::uint64_t kStride = 32;  // slot pitch (>= 2 * kLength)

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Row {
  std::string section;
  std::string mode;       // "-", "per-move", "batched"
  bool checkpointed = false;
  std::uint64_t n = 0;    // live objects
  std::uint64_t ops = 0;
  double seconds = 0;
  double ops_per_sec() const { return static_cast<double>(ops) / seconds; }
};

/// Section A: place / move / remove throughput at `n` live objects.
/// Layout: object i at [i*kStride, i*kStride + kLength); moves ping-pong
/// each object between the two halves of its slot (the sequential sweep
/// pattern of a flush).
std::vector<Row> RunPrimitiveOps(std::uint64_t n, std::uint64_t move_ops) {
  std::vector<Row> rows;
  AddressSpace space;

  auto start = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    space.Place(i + 1, Extent{i * kStride, kLength});
  }
  rows.push_back({"place", "-", false, n, n, Seconds(start)});

  std::uint64_t done = 0;
  bool upper = false;
  start = Clock::now();
  while (done < move_ops) {
    const std::uint64_t shift = upper ? 0 : kLength;
    for (std::uint64_t i = 0; i < n && done < move_ops; ++i, ++done) {
      space.Move(i + 1, Extent{i * kStride + shift, kLength});
    }
    upper = !upper;
  }
  rows.push_back({"move", "per-move", false, n, done, Seconds(start)});

  start = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    space.Remove(i + 1);
  }
  rows.push_back({"remove", "-", false, n, n, Seconds(start)});
  return rows;
}

/// Section B: the move storm. All n objects sit packed at [i*kLength); one
/// round crunches them right into [base + i*kLength) (descending order,
/// like CrunchRight / flush step 2) and unpacks them back (ascending, like
/// flush step 3). `batched` stages each pass as one ApplyMoves plan;
/// `checkpointed` runs the durability model with a checkpoint after every
/// pass (passes are nonoverlapping, so one window per pass suffices).
struct Storm {
  Row row;
  bool self_check = false;  // SelfCheck() after the last pass
  std::vector<std::pair<ObjectId, Extent>> layout;  // final Snapshot()
};

Storm RunMoveStorm(bool batched, bool checkpointed, std::uint64_t n,
                   std::uint64_t target_moves) {
  std::unique_ptr<CheckpointManager> manager;
  if (checkpointed) manager = std::make_unique<CheckpointManager>();
  AddressSpace space(manager.get());
  for (std::uint64_t i = 0; i < n; ++i) {
    space.Place(i + 1, Extent{i * kLength, kLength});
  }
  const std::uint64_t base = n * kLength;  // disjoint upper arena

  std::vector<MovePlan> plan;
  plan.reserve(n);
  std::uint64_t moves = 0;
  const auto pass = [&](bool to_upper) {
    const std::uint64_t offset = to_upper ? base : 0;
    if (batched) {
      plan.clear();
      if (to_upper) {
        for (std::uint64_t i = n; i-- > 0;) {
          plan.push_back(MovePlan{i + 1, {offset + i * kLength, kLength}});
        }
      } else {
        for (std::uint64_t i = 0; i < n; ++i) {
          plan.push_back(MovePlan{i + 1, {offset + i * kLength, kLength}});
        }
      }
      space.ApplyMoves(plan);
    } else if (to_upper) {
      for (std::uint64_t i = n; i-- > 0;) {
        space.Move(i + 1, Extent{offset + i * kLength, kLength});
      }
    } else {
      for (std::uint64_t i = 0; i < n; ++i) {
        space.Move(i + 1, Extent{offset + i * kLength, kLength});
      }
    }
    if (checkpointed) space.Checkpoint();
    moves += n;
  };

  const auto start = Clock::now();
  bool to_upper = true;
  while (moves < target_moves) {
    pass(to_upper);
    to_upper = !to_upper;
  }
  const Row row{"move-storm", batched ? "batched" : "per-move", checkpointed,
                n, moves, Seconds(start)};
  return Storm{row, space.SelfCheck(), space.Snapshot()};
}

void WriteJson(const std::vector<Row>& rows, double plain_ratio,
               double checkpointed_ratio, bool consistent, bool smoke) {
  std::FILE* json = std::fopen("BENCH_address_space.json", "w");
  if (json == nullptr) {
    std::printf("cannot open BENCH_address_space.json for writing\n");
    return;
  }
  std::fprintf(json, "{\n  \"schema_version\": 2,\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(json, "  \"storms_consistent\": %s,\n",
               consistent ? "true" : "false");
  std::fprintf(json,
               "  \"storm_batched_vs_per_move\": "
               "{\"plain\": %.2f, \"checkpointed\": %.2f},\n",
               plain_ratio, checkpointed_ratio);
  std::fprintf(json, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(json,
                 "    {\"section\": \"%s\", "
                 "\"mode\": \"%s\", \"checkpointed\": %s, \"n\": %llu, "
                 "\"ops\": %llu, \"seconds\": %.4f, \"ops_per_sec\": %.0f}%s\n",
                 row.section.c_str(), row.mode.c_str(),
                 row.checkpointed ? "true" : "false",
                 static_cast<unsigned long long>(row.n),
                 static_cast<unsigned long long>(row.ops), row.seconds,
                 row.ops_per_sec(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_address_space.json (%zu rows)\n", rows.size());
}

}  // namespace
}  // namespace cosr

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  cosr::bench::Banner(
      "EXP-ADDRESS-SPACE — AddressSpace primitive ops and move storms, "
      "per-move vs batched",
      "flush move storms should run at memory speed, not rb-tree speed");

  const std::vector<std::uint64_t> sizes =
      smoke ? std::vector<std::uint64_t>{1000, 20000}
            : std::vector<std::uint64_t>{1000, 10000, 100000, 1000000};
  const std::uint64_t move_ops = smoke ? 200000 : 2000000;

  std::vector<cosr::Row> rows;
  {
    cosr::bench::Table table(
        {"n", "place Mops/s", "move Mops/s", "remove Mops/s"});
    for (const std::uint64_t n : sizes) {
      const std::vector<cosr::Row> r = cosr::RunPrimitiveOps(n, move_ops);
      table.AddRow({std::to_string(n),
                    cosr::bench::Fmt(r[0].ops_per_sec() / 1e6, 2),
                    cosr::bench::Fmt(r[1].ops_per_sec() / 1e6, 2),
                    cosr::bench::Fmt(r[2].ops_per_sec() / 1e6, 2)});
      rows.insert(rows.end(), r.begin(), r.end());
    }
    std::printf("\n-- primitive ops (object %llu B, slot pitch %llu B) --\n",
                static_cast<unsigned long long>(cosr::kLength),
                static_cast<unsigned long long>(cosr::kStride));
    table.Print();
  }

  const std::uint64_t storm_n = smoke ? 5000 : 100000;
  double ratio[2] = {0, 0};  // batched / per-move, indexed by checkpointed
  std::vector<std::string> failures;
  {
    cosr::bench::Table table(
        {"mode", "ckpt", "moves", "Mmoves/s", "SelfCheck"});
    for (const bool checkpointed : {false, true}) {
      const char* ckpt = checkpointed ? "yes" : "no";
      const cosr::Storm per_move =
          cosr::RunMoveStorm(false, checkpointed, storm_n, move_ops);
      const cosr::Storm batched =
          cosr::RunMoveStorm(true, checkpointed, storm_n, move_ops);
      for (const cosr::Storm* storm : {&per_move, &batched}) {
        const cosr::Row& row = storm->row;
        table.AddRow({row.mode, ckpt, std::to_string(row.ops),
                      cosr::bench::Fmt(row.ops_per_sec() / 1e6, 2),
                      storm->self_check ? "ok" : "FAIL"});
        if (!storm->self_check) {
          failures.push_back("SelfCheck failed after the " + row.mode +
                             " storm (ckpt " + ckpt + ")");
        }
        rows.push_back(row);
      }
      if (batched.layout != per_move.layout) {
        failures.push_back(std::string("batched and per-move storms (ckpt ") +
                           ckpt + ") ended in different layouts");
      }
      ratio[checkpointed] =
          batched.row.ops_per_sec() / per_move.row.ops_per_sec();
    }
    std::printf("\n-- move storm (flush-shaped crunch/unpack, n=%llu) --\n",
                static_cast<unsigned long long>(storm_n));
    table.Print();
    std::printf("batched / per-move throughput (informational): %.2fx plain, "
                "%.2fx checkpointed\n",
                ratio[0], ratio[1]);
  }

  const bool consistent = failures.empty();
  cosr::WriteJson(rows, ratio[0], ratio[1], consistent, smoke);

  cosr::bench::Verdict(
      consistent,
      consistent ? "every storm passed SelfCheck and per-move/batched storms "
                   "ended in identical layouts"
                 : failures.front());
  return consistent ? 0 : 1;
}
