// hom_perfbench: the measuring half of the repo benchmark (perfbench/run.py
// drives it; see perfbench/README.md).
//
//   hom_perfbench prepare --workload W --seed S --dir D --instance I
//                         [--scale F]
//       Untimed set-up of one instance: draws one stream from seed
//       S*1000+I, writes its first slice to D/history_<I>.csv and the next
//       slice to D/test_<I>.csv, and builds the reference model
//       D/model_<I>.hom from that CSV on one thread. run.py prepares the
//       instances in parallel processes.
//   hom_perfbench measure --workload W --dir D --seconds T [--trace]
//       Reads only those files and times the library's public API from
//       outside. Prints one JSON object of raw samples on stdout; run.py
//       turns them into metrics. With --trace it runs the per-layer ledger
//       pass on instance 0 instead of the end-to-end pass.
//
// Each step runs in its own process, so peak RSS covers only measured work.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "classifiers/decision_tree.h"
#include "common/rng.h"
#include "data/dataset_view.h"
#include "data/io.h"
#include "eval/prequential.h"
#include "highorder/builder.h"
#include "highorder/checkpoint.h"
#include "highorder/serialization.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/request_timer.h"
#include "streams/intrusion.h"
#include "streams/stagger.h"

namespace {

using hom::obs::JsonValue;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  const char* stream;  ///< "intrusion" | "stagger"
  double lambda;       ///< 0 = the generator's default
  /// Independent streams per run. Discovered concept counts, and with them
  /// build and serve cost, differ from seed to seed; summing over several
  /// streams keeps one run's figures close to the next seed's.
  size_t instances;
  size_t history;  ///< records per history_<i>.csv (the build input)
  size_t test;     ///< records per test_<i>.csv (the serve input)
  double labeled_fraction;
  uint64_t checkpoint_every;  ///< 0 = no serving checkpoints
  size_t calibration_every;   ///< serve's sampled calibration period
  size_t build_instances;  ///< instances whose build is timed
  size_t build_reps;       ///< timed builds per such instance
  /// Rounds of prequential passes, at least. Round 0 warms up and is not
  /// timed; the timed builds are spread evenly over these rounds.
  size_t min_rounds;
  size_t setup_every;  ///< a timed set-up of every instance each N rounds
  /// A prequential error above this means model and stream do not belong
  /// together (a model/stream seed mismatch scores ~0.33 on Intrusion).
  double max_error;
};

constexpr Workload kWorkloads[] = {
    // name, stream, lambda, instances, history, test, labeled, checkpoint,
    // calibration, build instances, build reps, min rounds, setup every,
    // max_error
    {"online-intrusion", "intrusion", 0.002, 8, 30000, 37500, 1.0, 0, 0, 3,
     1, 9, 4, 0.2},
    {"serve-stagger", "stagger", 0.0, 16, 20000, 18750, 0.1, 500, 512, 16,
     5, 40, 8, 0.2},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<hom::StreamGenerator> MakeGenerator(const Workload& w,
                                                    uint64_t seed) {
  if (std::strcmp(w.stream, "intrusion") == 0) {
    hom::IntrusionConfig config;
    if (w.lambda > 0) config.lambda = w.lambda;
    return std::make_unique<hom::IntrusionGenerator>(seed, config);
  }
  hom::StaggerConfig config;
  if (w.lambda > 0) config.lambda = w.lambda;
  return std::make_unique<hom::StaggerGenerator>(seed, config);
}

// ------------------------------------------------------------------ helpers

struct Args {
  std::string command;
  std::string workload;
  std::string dir;
  uint64_t seed = 1;
  double seconds = 10.0;
  double scale = 1.0;
  size_t instance = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--trace") {
      args->trace = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--dir") {
      args->dir = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--scale") {
      args->scale = std::atof(value.c_str());
    } else if (key == "--instance") {
      args->instance = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->dir.empty() && args->scale > 0;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Fixed CPU-bound reference loop, timed beside each run so a reader can
/// tell a slow host from a slow program.
double ProbeMs() {
  auto start = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  double ms = SecondsSince(start) * 1e3;
  volatile uint64_t sink = x;
  (void)sink;
  return ms;
}

/// Pins the calling thread to the CPUs it may run on, one at a time. On a
/// shared host each CPU runs at its own, slowly drifting speed, and a
/// single-threaded process tends to stay on one of them for its whole life,
/// so one run's figures would follow one CPU. Pinning each timed set-up and
/// pass to CPU (round + instance) mod n spreads every round over all of
/// them. Threads inherit the mask they are created under, so a build is
/// only started on the next CPU in turn and then unpinned before its pool
/// starts; the serial parts of the build tend to stay on that CPU.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  void Pin(size_t k) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  void Unpin() const {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }
  void StartOn(size_t k) const {
    Pin(k);
    Unpin();
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

JsonValue Array(const std::vector<double>& values) {
  JsonValue out = JsonValue::Array();
  for (double v : values) out.Append(v);
  return out;
}

void WriteSamples(const std::string& path, const std::vector<double>& v) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

using Counters = std::map<std::string, uint64_t>;

uint64_t Get(const Counters& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

/// Registry counters are process-global: every layer number is a delta
/// between two snapshots taken around the measured call.
struct CounterDelta {
  hom::obs::MetricsSnapshot before =
      hom::obs::MetricsRegistry::Global().Snapshot();

  Counters Counts() const {
    return hom::obs::MetricsRegistry::Global()
        .Snapshot()
        .DeltaSince(before)
        .CountersFlattened();
  }
  /// Seconds recorded into hom.serve.stage_seconds{stage=...} since
  /// construction, per stage.
  std::map<std::string, double> StageSeconds() const {
    std::map<std::string, double> out;
    auto after = hom::obs::MetricsRegistry::Global().Snapshot();
    for (const auto& [key, data] : after.labeled_histograms) {
      if (key.name != "hom.serve.stage_seconds" || key.labels.empty()) {
        continue;
      }
      double sum = data.sum;
      auto it = before.labeled_histograms.find(key);
      if (it != before.labeled_histograms.end()) sum -= it->second.sum;
      out[key.labels[0].second] += sum;
    }
    return out;
  }
};

const hom::obs::PhaseNode* FindPhase(const hom::obs::PhaseNode& node,
                                     const std::string& name) {
  if (node.name == name) return &node;
  for (const auto& child : node.children) {
    if (const auto* found = FindPhase(child, name)) return found;
  }
  return nullptr;
}

double PhaseSeconds(const hom::obs::PhaseNode& root, const std::string& name) {
  const auto* node = FindPhase(root, name);
  return node == nullptr ? 0.0 : node->seconds;
}

// ------------------------------------------------------------- bookkeeping

/// Operations attempted and failed, plus the named output checks. An
/// operation is one build, one scored record or one checkpoint.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  JsonValue checks = JsonValue::Array();

  /// Records one output check; `failed_ops` operations fail with it.
  void Check(const std::string& name, bool ok, uint64_t failed_ops,
             const std::string& detail) {
    JsonValue c = JsonValue::Object();
    c.Set("name", name);
    c.Set("ok", ok);
    c.Set("detail", detail);
    checks.Append(std::move(c));
    if (!ok) failed += failed_ops;
  }
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "hom_perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(hom::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

struct Instance {
  std::string history;
  std::string test;
  std::string model;    ///< reference model, built on one thread by prepare
  std::string rebuilt;  ///< where measured builds write theirs
};

Instance InstancePaths(const std::string& dir, size_t i) {
  std::string n = std::to_string(i);
  return {dir + "/history_" + n + ".csv", dir + "/test_" + n + ".csv",
          dir + "/model_" + n + ".hom", dir + "/rebuilt_" + n + ".hom"};
}

hom::SchemaPtr SchemaOf(const Workload& w) {
  return MakeGenerator(w, 1)->schema();
}

/// homctl's ingest: ReadCsv under the default "skip" input policy.
hom::Result<hom::Dataset> ReadInput(const hom::SchemaPtr& schema,
                                    const std::string& path,
                                    hom::CsvReadReport* report) {
  hom::CsvReadOptions options;
  options.policy = hom::InputPolicy::kSkip;
  return hom::ReadCsv(schema, path, options, report);
}

// ----------------------------------------------------------------- building

struct BuildOutcome {
  double seconds = 0.0;  ///< Build + SaveHighOrderModelToFile
  double save_seconds = 0.0;
  hom::HighOrderBuildReport report;
  Counters counters;
};

/// One `homctl build`: DecisionTree base learner, builder seed 7, the pool
/// at its default size unless `threads` is set.
BuildOutcome BuildAndSave(const hom::Dataset& history, const std::string& out,
                          size_t threads, Ledger* ledger) {
  BuildOutcome outcome;
  hom::HighOrderBuildConfig config;
  config.clustering.num_threads = threads;
  hom::HighOrderModelBuilder builder(hom::DecisionTree::Factory(), config);
  hom::Rng rng(7);
  ++ledger->attempted;
  CounterDelta delta;
  auto start = Clock::now();
  auto model = Must(builder.Build(history, &rng, &outcome.report), "build");
  auto save_start = Clock::now();
  hom::Status st = hom::SaveHighOrderModelToFile(out, *model);
  outcome.save_seconds = SecondsSince(save_start);
  outcome.seconds = SecondsSince(start);
  outcome.counters = delta.Counts();
  if (!st.ok()) Die("save: " + st.ToString());
  return outcome;
}

// ------------------------------------------------------------------ serving

/// What `homctl evaluate` / `serve` hold after set-up.
struct Served {
  std::unique_ptr<hom::HighOrderClassifier> model;
  hom::Dataset test;
  hom::CsvReadReport csv;
  double load_seconds = 0.0;
  double read_seconds = 0.0;
};

std::unique_ptr<hom::HighOrderClassifier> LoadModel(const std::string& path) {
  auto model = Must(hom::LoadHighOrderModelFromFile(path), "load " + path);
  model->set_input_policy(hom::InputPolicy::kSkip);
  return model;
}

/// Set-up: LoadHighOrderModelFromFile + ReadCsv of the test stream.
Served SetUp(const Instance& paths) {
  auto start = Clock::now();
  auto model = LoadModel(paths.model);
  double load_seconds = SecondsSince(start);
  auto read_start = Clock::now();
  hom::CsvReadReport csv;
  auto test = Must(ReadInput(model->schema(), paths.test, &csv), "read test");
  return {std::move(model), std::move(test), csv, load_seconds,
          SecondsSince(read_start)};
}

struct CheckpointRecord {
  std::string base;   ///< previous full bytes ("" for the first)
  std::string delta;  ///< EncodeCheckpointDelta(base, full)
  std::string full;
  double capture_us = 0, serialize_us = 0, delta_us = 0;
};

struct LoopOutcome {
  double seconds = 0.0;  ///< RunPrequential, timed from outside
  size_t records = 0;
  size_t errors = 0;
  Counters counters;
  std::map<std::string, double> stages;
  std::vector<CheckpointRecord> checkpoints;

  uint64_t switches() const {
    return Get(counters, "hom.online.concept_switches");
  }
};

/// One prequential pass configured as homctl configures it: concept stats
/// on, the RequestTimer on unless `request_timer` is false, serve's
/// sampled calibration, and (serve-stagger) a serving checkpoint captured,
/// serialized and delta-encoded every `checkpoint_every` records, kept in
/// memory. `per_step` also times the three checkpoint steps.
LoopOutcome Loop(const Workload& w, hom::HighOrderClassifier* model,
                 const hom::Dataset& test, bool request_timer,
                 bool per_step) {
  LoopOutcome out;
  hom::obs::RequestTimer timer;
  auto stats =
      std::make_shared<hom::OnlineConceptStats>(model->num_classes(), 500);
  hom::PrequentialOptions options;
  options.labeled_fraction = w.labeled_fraction;
  options.track_concept_stats = true;
  options.resume_concept_stats = stats;
  options.calibration_sample_period = w.calibration_every;
  if (request_timer) options.request_timer = &timer;
  std::string previous;
  if (w.checkpoint_every > 0) {
    options.checkpoint_every = w.checkpoint_every;
    out.checkpoints.reserve(test.size() / w.checkpoint_every + 1);
    options.on_checkpoint = [&](const hom::PrequentialProgress& progress) {
      CheckpointRecord rec;
      rec.base = previous;
      auto t0 = Clock::now();
      auto ckpt = hom::CaptureCheckpoint(*model);
      auto t1 = Clock::now();
      auto t2 = t1;
      if (ckpt.ok()) {
        ckpt->stream_offset = progress.record;
        ckpt->num_errors = progress.num_errors;
        ckpt->window_errors = progress.window_errors;
        ckpt->window_fill = progress.window_fill;
        ckpt->concept_stats = stats;
        auto bytes = hom::SerializeCheckpoint(*ckpt);
        t2 = Clock::now();
        if (bytes.ok()) rec.full = std::move(*bytes);
        if (!previous.empty() && !rec.full.empty()) {
          auto delta = hom::EncodeCheckpointDelta(previous, rec.full);
          if (delta.ok()) rec.delta = std::move(*delta);
        }
      }
      auto t3 = Clock::now();
      if (per_step) {
        rec.capture_us = MicrosBetween(t0, t1);
        rec.serialize_us = MicrosBetween(t1, t2);
        rec.delta_us = MicrosBetween(t2, t3);
      }
      previous = rec.full;
      out.checkpoints.push_back(std::move(rec));
    };
  }
  CounterDelta delta;
  auto start = Clock::now();
  hom::PrequentialResult result = hom::RunPrequential(model, test, options);
  out.seconds = SecondsSince(start);
  out.counters = delta.Counts();
  out.stages = delta.StageSeconds();
  out.records = result.num_records;
  out.errors = result.num_errors;
  return out;
}

/// Output checks of one instance's first pass: every record scored, none
/// rejected, error below the mismatch ceiling, and every serving
/// checkpoint round-trips (the delta re-applied to its base gives the full
/// bytes, and ParseCheckpoint accepts them).
void CheckFirstPass(const Workload& w, const Served& s, const LoopOutcome& l,
                    Ledger* ledger) {
  uint64_t rejected = Get(l.counters, "hom.online.input_rejected") +
                      s.csv.rows_skipped;
  ledger->Check("records_scored", rejected == 0, rejected,
                std::to_string(l.records) + " of " +
                    std::to_string(s.csv.rows_read) + " rows");
  double error = Ratio(static_cast<double>(l.errors),
                       static_cast<double>(l.records));
  ledger->Check("error_below_mismatch", error < w.max_error, l.records,
                "error " + std::to_string(error));
  uint64_t bad = 0;
  for (const CheckpointRecord& c : l.checkpoints) {
    bool ok = !c.full.empty() && hom::ParseCheckpoint(c.full).ok();
    if (ok && !c.base.empty()) {
      auto applied = hom::ApplyCheckpointDelta(c.base, c.delta);
      ok = applied.ok() && *applied == c.full;
    }
    if (!ok) ++bad;
  }
  ledger->Check("checkpoints_round_trip", bad == 0, bad,
                std::to_string(l.checkpoints.size()) + " checkpoints");
}

// ---------------------------------------------------------- end-to-end pass

int MeasureEndToEnd(const Workload& w, const Args& args) {
  Ledger ledger;
  std::vector<double> probe_ms{ProbeMs()};
  auto start = Clock::now();
  hom::SchemaPtr schema = SchemaOf(w);
  std::vector<Instance> paths;
  for (size_t i = 0; i < w.instances; ++i) {
    paths.push_back(InstancePaths(args.dir, i));
  }
  JsonValue instances = JsonValue::Array();

  // Timed builds: ingest the history, build at the pool's default size,
  // save. Every build must write the bytes of the single-thread reference
  // build prepare made in another process.
  std::vector<std::vector<double>> build_s(w.instances);
  std::vector<std::string> references;
  for (size_t i = 0; i < w.build_instances; ++i) {
    references.push_back(ReadFileBytes(paths[i].model));
  }
  std::vector<size_t> differ(w.build_instances);
  CpuRotation cpus;
  size_t builds_done = 0;
  auto build_until = [&](size_t end) {
    for (; builds_done < end; ++builds_done) {
      size_t i = builds_done % w.build_instances;
      cpus.StartOn(builds_done);
      auto history = Must(ReadInput(schema, paths[i].history, nullptr),
                          "read history");
      build_s[i].push_back(
          BuildAndSave(history, paths[i].rebuilt, 0, &ledger).seconds);
      if (ReadFileBytes(paths[i].rebuilt) != references[i]) ++differ[i];
    }
  };

  // Rounds over all instances until --seconds have gone by, but at least
  // min_rounds. Each round serves every instance once on a freshly loaded
  // model; every setup_every rounds that model and the test stream come
  // from a timed set-up instead. Round 0 is the warm-up: its set-ups are
  // timed, its passes are checked but not timed. Error and concept
  // switches must repeat exactly. The timed builds are spread evenly over
  // the first min_rounds rounds, so a slow drift in host speed touches
  // builds, set-ups and passes alike. Set-ups and passes rotate over the
  // CPUs (see CpuRotation).
  std::vector<std::optional<Served>> served(w.instances);
  std::vector<std::vector<double>> setup_s(w.instances);
  std::vector<std::vector<double>> loop_s(w.instances);
  std::vector<LoopOutcome> first(w.instances);
  size_t mismatches = 0;
  size_t rounds = 0;
  std::vector<size_t> concepts(w.instances);
  size_t total_builds = w.build_instances * w.build_reps;
  for (; rounds < w.min_rounds || SecondsSince(start) < args.seconds;
       ++rounds) {
    cpus.Unpin();
    build_until(std::min(total_builds, (total_builds * (rounds + 1) +
                                        w.min_rounds - 1) / w.min_rounds));
    for (size_t i = 0; i < w.instances; ++i) {
      cpus.Pin(rounds + i);
      if (rounds % w.setup_every == 0) {
        auto setup_start = Clock::now();
        served[i].emplace(SetUp(paths[i]));
        setup_s[i].push_back(SecondsSince(setup_start));
      } else {
        served[i]->model = LoadModel(paths[i].model);
      }
      Served& s = *served[i];
      concepts[i] = s.model->num_concepts();
      LoopOutcome l = Loop(w, s.model.get(), s.test, true, false);
      ledger.attempted += l.records + l.checkpoints.size();
      if (rounds == 0) {
        CheckFirstPass(w, s, l, &ledger);
        first[i] = std::move(l);
        continue;
      }
      loop_s[i].push_back(l.seconds);
      if (l.errors != first[i].errors || l.switches() != first[i].switches()) {
        ++mismatches;
        ledger.failed += l.records;
      }
    }
  }
  cpus.Unpin();
  ledger.Check("serve_repeat", mismatches == 0, 0,
               std::to_string(mismatches) + " of " +
                   std::to_string(rounds) +
                   " passes per instance differ");
  for (size_t i = 0; i < w.build_instances; ++i) {
    ledger.Check("model_bytes_match_1t_reference", differ[i] == 0, differ[i],
                 "instance " + std::to_string(i) + ": " +
                     std::to_string(differ[i]) + " of " +
                     std::to_string(build_s[i].size()) + " builds differ");
  }

  for (size_t i = 0; i < w.instances; ++i) {
    JsonValue inst = JsonValue::Object();
    inst.Set("records", static_cast<uint64_t>(first[i].records));
    inst.Set("errors", static_cast<uint64_t>(first[i].errors));
    inst.Set("concepts", static_cast<uint64_t>(concepts[i]));
    inst.Set("build_s", Array(build_s[i]));
    inst.Set("setup_s", Array(setup_s[i]));
    inst.Set("loop_s", Array(loop_s[i]));
    instances.Append(std::move(inst));
  }
  probe_ms.push_back(ProbeMs());

  JsonValue out = JsonValue::Object();
  out.Set("workload", w.name);
  out.Set("instances", std::move(instances));
  out.Set("peak_rss_mb", PeakRssMb());
  out.Set("probe_ms", Array(probe_ms));
  out.Set("attempted", ledger.attempted);
  out.Set("failed", ledger.failed);
  out.Set("checks", std::move(ledger.checks));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ------------------------------------------------------------- traced pass

/// Outside-timed DecisionTree::Train on fixed history slices: up to eight
/// consecutive 1000-record slices, three rounds, median microseconds per
/// training record.
double DecisionTreeTrainUsPerRecord(const hom::Dataset& history) {
  size_t slice = std::min<size_t>(1000, history.size());
  size_t slices = std::min<size_t>(8, history.size() / slice);
  std::vector<double> per_record;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < slices; ++i) {
      hom::DatasetView view(&history, i * slice, (i + 1) * slice);
      hom::DecisionTree tree(history.schema());
      auto start = Clock::now();
      hom::Status st = tree.Train(view);
      double us = SecondsSince(start) * 1e6;
      if (!st.ok()) Die("train: " + st.ToString());
      per_record.push_back(us / static_cast<double>(slice));
    }
  }
  return Median(per_record);
}

struct CallTimes {
  std::vector<double> predict_us;
  std::vector<double> observe_us;
  double seconds = 0.0;
  size_t errors = 0;
};

/// The prequential protocol driven by hand with each Predict and
/// ObserveLabeled call timed. Labels are revealed exactly as RunPrequential
/// reveals them (Bernoulli draws from Rng(7)); no concept stats, timer or
/// checkpoints.
CallTimes TimeCalls(hom::HighOrderClassifier* model, const hom::Dataset& test,
                    double labeled_fraction) {
  CallTimes out;
  out.predict_us.reserve(test.size());
  out.observe_us.reserve(test.size());
  hom::Rng label_rng(7);
  auto start = Clock::now();
  for (const hom::Record& r : test.records()) {
    hom::Record unlabeled = r;
    unlabeled.label = hom::kUnlabeled;
    auto t0 = Clock::now();
    hom::Label predicted = model->Predict(unlabeled);
    out.predict_us.push_back(MicrosBetween(t0, Clock::now()));
    if (predicted != r.label) ++out.errors;
    if (labeled_fraction >= 1.0 || label_rng.NextBernoulli(labeled_fraction)) {
      auto t1 = Clock::now();
      model->ObserveLabeled(r);
      out.observe_us.push_back(MicrosBetween(t1, Clock::now()));
    }
  }
  out.seconds = SecondsSince(start);
  return out;
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

int MeasureTraced(const Workload& w, const Args& args) {
  Ledger ledger;
  JsonValue layers = JsonValue::Object();
  auto set = [&](const std::string& name, double value) {
    layers.Set(name, value);
  };
  set("host.probe_ms", ProbeMs());
  hom::SchemaPtr schema = SchemaOf(w);
  Instance paths = InstancePaths(args.dir, 0);

  // Build layers: a default-size build with its report, then the
  // single-thread baseline. Both must write the bytes of prepare's
  // reference build.
  auto history = Must(ReadInput(schema, paths.history, nullptr),
                      "read history");
  std::string reference = ReadFileBytes(paths.model);
  BuildOutcome b = BuildAndSave(history, paths.rebuilt, 0, &ledger);
  std::string model_bytes = ReadFileBytes(paths.rebuilt);
  ledger.Check("model_bytes_match_1t_reference", model_bytes == reference, 1,
               std::to_string(b.report.effective_threads) + " threads");
  BuildOutcome b1 = BuildAndSave(history, paths.rebuilt, 1, &ledger);
  ledger.Check("model_bytes_match_1t_reference",
               ReadFileBytes(paths.rebuilt) == reference, 1, "1 thread");

  const auto& phases = b.report.phases;
  set("highorder.step1_s", PhaseSeconds(phases, "step1_chunk_merging"));
  set("highorder.step2_s", PhaseSeconds(phases, "step2_concept_merging"));
  set("highorder.leaf_training_s", PhaseSeconds(phases, "leaf_training"));
  set("highorder.final_training_s",
      PhaseSeconds(phases, "classifier_training"));
  const Counters& bc = b.counters;
  double pushes = static_cast<double>(Get(bc, "hom.merge_queue.pushes"));
  double stale = static_cast<double>(Get(bc, "hom.merge_queue.stale_pops"));
  set("highorder.heap_pushes", pushes);
  set("highorder.heap_stale_pops", stale);
  set("highorder.heap_useful_ratio", Ratio(pushes - stale, pushes));
  double hits = static_cast<double>(Get(bc, "hom.cluster.simcache.hits"));
  double misses = static_cast<double>(Get(bc, "hom.cluster.simcache.misses"));
  set("highorder.simcache_hit_rate", Ratio(hits, hits + misses));
  set("highorder.num_chunks", static_cast<double>(b.report.num_chunks));
  set("highorder.num_concepts", static_cast<double>(b.report.num_concepts));
  set("highorder.save_s", b.save_seconds);
  set("highorder.model_bytes", static_cast<double>(model_bytes.size()));
  for (const char* phase : {"leaf", "score", "merge"}) {
    set(std::string("classifiers.trained_") + phase,
        static_cast<double>(Get(
            bc, std::string("hom.cluster.classifiers_trained{phase=\"") +
                    phase + "\"}")));
  }
  set("classifiers.trained_final",
      static_cast<double>(Get(bc, "hom.build.final_classifiers_trained")));
  uint64_t reused = 0;
  for (const auto& [key, value] : bc) {
    if (key.rfind("hom.cluster.classifiers_reused", 0) == 0) reused += value;
  }
  set("classifiers.reused", static_cast<double>(reused));
  set("classifiers.dt_train_us_per_record",
      DecisionTreeTrainUsPerRecord(history));
  set("par.threads", static_cast<double>(b.report.effective_threads));
  set("par.pool_tasks", static_cast<double>(b.report.pool_tasks));
  set("par.build_1t_s", b1.seconds);
  set("par.speedup", Ratio(b1.seconds, b.seconds));
  history = hom::Dataset(schema);  // released before the serve layers

  // Serve layers: the homctl-configured pass with the RequestTimer (stage
  // histograms, per-step checkpoint timing), then the same pass without it.
  Served served = SetUp(paths);
  LoopOutcome timed = Loop(w, served.model.get(), served.test, true, true);
  ledger.attempted += timed.records + timed.checkpoints.size();
  CheckFirstPass(w, served, timed, &ledger);
  auto untimed_model = LoadModel(paths.model);
  LoopOutcome untimed =
      Loop(w, untimed_model.get(), served.test, false, false);
  ledger.attempted += untimed.records + untimed.checkpoints.size();
  ledger.Check("serve_repeat",
               timed.errors == untimed.errors &&
                   timed.switches() == untimed.switches(),
               untimed.records, "with and without the RequestTimer");

  set("data.read_csv_s", served.read_seconds);
  set("data.rows_read", static_cast<double>(served.csv.rows_read));
  set("data.read_csv_mb_per_s",
      Ratio(static_cast<double>(ReadFileBytes(paths.test).size()) / 1e6,
            served.read_seconds));
  auto stage = [&](const char* name) {
    auto it = timed.stages.find(name);
    return it == timed.stages.end() ? 0.0 : it->second;
  };
  double stage_sum = 0.0;
  for (const auto& entry : timed.stages) stage_sum += entry.second;
  const Counters& tc = timed.counters;
  double records = static_cast<double>(timed.records);
  set("data.sanitize_s", stage("sanitize"));
  set("data.input_rejected",
      static_cast<double>(Get(tc, "hom.online.input_rejected")));
  set("highorder.load_s", served.load_seconds);
  set("classifiers.base_evals_per_predict",
      Ratio(static_cast<double>(Get(tc, "hom.online.base_evaluations")),
            records));
  set("highorder.psi_evals_per_observe",
      Ratio(static_cast<double>(Get(tc, "hom.online.psi_evaluations")),
            static_cast<double>(Get(tc, "hom.online.observations"))));
  set("highorder.concept_switches", static_cast<double>(timed.switches()));
  set("eval.loop_s", timed.seconds);
  set("eval.harness_s", timed.seconds - stage_sum);
  set("eval.error_rate", Ratio(static_cast<double>(timed.errors), records));
  set("obs.request_timer_ratio", Ratio(timed.seconds, untimed.seconds));

  std::vector<double> capture, serialize, delta, full_bytes, delta_bytes;
  for (const CheckpointRecord& c : timed.checkpoints) {
    capture.push_back(c.capture_us);
    serialize.push_back(c.serialize_us);
    full_bytes.push_back(static_cast<double>(c.full.size()));
    if (!c.base.empty()) {
      delta.push_back(c.delta_us);
      delta_bytes.push_back(static_cast<double>(c.delta.size()));
    }
  }
  set("checkpoint.count", static_cast<double>(timed.checkpoints.size()));
  set("checkpoint.capture_us", Median(capture));
  set("checkpoint.serialize_us", Median(serialize));
  set("checkpoint.delta_us", Median(delta));
  set("checkpoint.full_bytes", Median(full_bytes));
  set("checkpoint.delta_bytes", Median(delta_bytes));

  // The bare protocol through RunPrequential against the same protocol
  // with every call timed from outside: their ratio is the tracing
  // overhead.
  auto bare_model = LoadModel(paths.model);
  hom::PrequentialOptions bare_options;
  bare_options.labeled_fraction = w.labeled_fraction;
  auto bare_start = Clock::now();
  hom::PrequentialResult bare =
      hom::RunPrequential(bare_model.get(), served.test, bare_options);
  double bare_seconds = SecondsSince(bare_start);
  auto calls_model = LoadModel(paths.model);
  CallTimes calls =
      TimeCalls(calls_model.get(), served.test, w.labeled_fraction);
  ledger.attempted += calls.predict_us.size();
  ledger.Check("per_call_matches_harness", calls.errors == bare.num_errors,
               calls.predict_us.size(),
               std::to_string(calls.errors) + " errors");
  set("highorder.predict_s", Sum(calls.predict_us) / 1e6);
  set("highorder.observe_s", Sum(calls.observe_us) / 1e6);
  set("obs.trace_overhead_ratio", Ratio(calls.seconds, bare_seconds));
  std::string predict_file = args.dir + "/predict_us.f64";
  std::string observe_file = args.dir + "/observe_us.f64";
  WriteSamples(predict_file, calls.predict_us);
  WriteSamples(observe_file, calls.observe_us);

  JsonValue out = JsonValue::Object();
  out.Set("workload", w.name);
  out.Set("layers", std::move(layers));
  out.Set("predict_us_file", predict_file);
  out.Set("observe_us_file", observe_file);
  out.Set("peak_rss_mb", PeakRssMb());
  out.Set("attempted", ledger.attempted);
  out.Set("failed", ledger.failed);
  out.Set("checks", std::move(ledger.checks));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ------------------------------------------------------------------ prepare

void WriteOrDie(const hom::Dataset& data, const std::string& path) {
  if (hom::Status st = hom::WriteCsv(data, path); !st.ok()) {
    Die(st.ToString());
  }
}

int Prepare(const Workload& w, const Args& args) {
  if (args.instance >= w.instances) Die("instance out of range");
  auto scaled = [&](size_t n) {
    return std::max<size_t>(200, static_cast<size_t>(n * args.scale));
  };
  // History and test are consecutive slices of one stream.
  auto gen = MakeGenerator(w, args.seed * 1000 + args.instance);
  Instance paths = InstancePaths(args.dir, args.instance);
  WriteOrDie(gen->Generate(scaled(w.history)), paths.history);
  WriteOrDie(gen->Generate(scaled(w.test)), paths.test);
  // The reference model comes from the CSV, as homctl build's would.
  auto history = Must(ReadInput(gen->schema(), paths.history, nullptr),
                      "read history");
  Ledger ledger;
  BuildAndSave(history, paths.model, 1, &ledger);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hom_perfbench prepare|measure|instances --workload W "
                 "--dir D [--seed S] [--instance I] [--scale F] [--seconds T] "
                 "[--trace]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) Die("unknown workload '" + args.workload + "'");
  if (args.command == "prepare") return Prepare(*w, args);
  if (args.command == "instances") {
    std::printf("%zu\n", w->instances);
    return 0;
  }
  if (args.command == "measure") {
    return args.trace ? MeasureTraced(*w, args) : MeasureEndToEnd(*w, args);
  }
  Die("unknown command '" + args.command + "'");
}
