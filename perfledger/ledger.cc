// perfledger: drives one ledger workload against the hetps runtimes and
// writes its raw measurements as JSON for run.py to aggregate.
//
//   perfledger --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//              --target=<objective> --ceiling=<objective>
//              --out=<raw.json> [--trace_out=<chrome trace.json>]
//
// --trace=0 repeats untraced trials of the workload until --seconds
// have passed (at least two) and records, per trial, set-up time,
// training wall time, worker 0's per-clock times, time and updates to
// the target objective, and the correctness verdict.
//
// --trace=1 alternates an untraced trainer leg with a traced leg driven
// by this file: it runs Algorithm 1 through the same public calls the
// trainers make (ParameterServer, MessageBus, PsService,
// RpcWorkerClient / WorkerClient, LocalWorkerSgd,
// Dataset::ObjectiveSample) with a span around each call. It then
// copies the GlobalMetrics() series the program already keeps, runs a
// one-worker baseline leg, and times isolated layer probes. Nothing
// inside src/ is instrumented for this.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/consolidation.h"
#include "core/learning_rate.h"
#include "core/sgd_compute.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "engine/distributed_trainer.h"
#include "engine/threaded_trainer.h"
#include "math/loss.h"
#include "net/message_bus.h"
#include "net/ps_service.h"
#include "net/serializer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_reporter.h"
#include "ps/parameter_server.h"
#include "ps/worker_client.h"
#include "sim/cluster_config.h"
#include "sim/event_sim.h"
#include "util/rng.h"

namespace hetps {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

int64_t NanosSinceStart(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t - kProcessStart)
      .count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Runtime { kRpc, kThreaded, kSim };

struct Workload {
  std::string name;
  Runtime runtime = Runtime::kRpc;
  int workers = 1;
  int servers = 1;
  int partitions_per_server = 1;
  int clocks = 1;
  double lr = 0.3;
  std::string rule;  // MakeConsolidationRule name
  // Synthetic data: CTR-like or URL-like rows at `data_scale`, with the
  // feature dimension overridden when `features` > 0.
  bool url_like = false;
  double data_scale = 1.0;
  int64_t features = 0;
};

constexpr double kL2 = 1e-4;
constexpr double kBatchFraction = 0.1;
constexpr size_t kEvalSample = 2000;
constexpr int kStaleness = 3;

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 2 : static_cast<int>(n);
}

bool LookupWorkload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "rpc-ctr-con") {
    // Every RPC hands the request to the service thread and the reply
    // back. Across cores each hand-off waits for the other core to be
    // scheduled, which on a shared virtual machine made clocks/s swing
    // threefold between runs; on one core (PinToOneCpu) the hand-offs
    // are context switches and a clock costs the CPU work of its layers.
    // One worker keeps each span free of other workers' time slices.
    w->runtime = Runtime::kRpc;
    w->workers = 1;
    w->servers = 2;
    w->clocks = 600;
    w->lr = 0.3;
    w->rule = "con";
    w->data_scale = 0.12;
    return true;
  }
  if (name == "threaded-bigdim-con") {
    // One core is left spare, so that load from outside the benchmark
    // oversubscribes the cores less.
    w->runtime = Runtime::kThreaded;
    w->workers = std::max(1, std::min(4, HardwareThreads() - 1));
    w->servers = 2;
    w->partitions_per_server = 2;
    w->clocks = 150;
    w->lr = 0.3;
    w->rule = "con";
    w->url_like = true;
    w->features = int64_t{1} << 18;
    return true;
  }
  if (name == "sim-paper-dyn") {
    w->runtime = Runtime::kSim;
    w->workers = 30;
    w->servers = 10;
    w->clocks = 30;
    w->lr = 2.0;
    w->rule = "dyn";
    return true;
  }
  return false;
}

// Restricts the process (threads created later included) to the last
// CPU it may run on.
bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

// The data distribution (ground truth, feature popularity, noise) is
// fixed per workload; the run seed draws which examples of a pool twice
// the workload's size are used, and their order. Seeds then vary the
// inputs without changing how hard the problem is.
constexpr uint64_t kDistributionSeed = 1337;

Dataset MakeData(const Workload& w, uint64_t seed) {
  SyntheticConfig config =
      w.url_like ? UrlLikeConfig(2.0 * w.data_scale, kDistributionSeed)
                 : CtrLikeConfig(2.0 * w.data_scale, kDistributionSeed);
  if (w.features > 0) config.num_features = w.features;
  Dataset pool = GenerateSynthetic(config);
  Rng rng(seed);
  pool.Shuffle(&rng);
  std::vector<Example> drawn(pool.examples().begin(),
                             pool.examples().begin() +
                                 static_cast<std::ptrdiff_t>(pool.size() / 2));
  return Dataset(std::move(drawn), pool.dimension());
}

size_t EvalSample(const Dataset& data) {
  return std::min(kEvalSample, data.size());
}

// ---------------------------------------------------------------------------
// Raw JSON output
// ---------------------------------------------------------------------------

class JsonOut {
 public:
  JsonOut() { os_ << std::setprecision(17); }
  void Open(char c) {
    Sep();
    os_ << c;
    first_ = true;
  }
  void Close(char c) {
    os_ << c;
    first_ = false;
  }
  void Key(const std::string& k) {
    Sep();
    os_ << '"' << k << "\":";
    first_ = true;
  }
  void Num(double v) {
    Sep();
    if (std::isfinite(v)) {
      os_ << v;
    } else {
      os_ << "null";
    }
  }
  void Str(const std::string& s) {
    Sep();
    os_ << '"' << JsonEscape(s) << '"';
  }
  // Inserts an already rendered JSON value.
  void Raw(const std::string& json) {
    Sep();
    os_ << json;
  }
  void Field(const std::string& k, double v) {
    Key(k);
    Num(v);
  }
  void Field(const std::string& k, const std::string& v) {
    Key(k);
    Str(v);
  }
  std::string str() const { return os_.str(); }

 private:
  void Sep() {
    if (!first_) os_ << ',';
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Untraced trials (--trace=0, and the reference legs of --trace=1)
// ---------------------------------------------------------------------------

struct Trial {
  double setup_s = 0.0;
  double train_s = 0.0;
  int64_t worker_clocks = 0;
  std::vector<double> clock_ms;  // worker 0, consecutive on_epoch gaps
  double time_to_target_s = -1.0;
  int64_t updates_to_target = -1;
  double final_objective = std::numeric_limits<double>::quiet_NaN();
  std::string failure;  // empty = every correctness check passed
  SimResult sim;  // simulator only
};

void Fail(Trial* t, const std::string& why) {
  if (!t->failure.empty()) t->failure += "; ";
  t->failure += why;
}

// Worker 0's clock completions, stamped on its own thread.
class EpochLog {
 public:
  explicit EpochLog(int clocks) {
    at_.reserve(static_cast<size_t>(clocks));
    pushes_.reserve(static_cast<size_t>(clocks));
  }
  std::function<void(int)> Hook() {
    return [this](int) {
      at_.push_back(Clock::now());
      pushes_.push_back(push_count_->value());
    };
  }
  // Fills set-up, per-clock and time-to-target figures of `t` from the
  // log and worker 0's objective after each clock.
  void Fill(Clock::time_point start, Clock::time_point call,
            const std::vector<double>& objective, double target,
            Trial* t) const {
    if (at_.empty()) {
      Fail(t, "no clock completed");
      return;
    }
    t->setup_s = Seconds(start, at_[0]);
    for (size_t i = 1; i < at_.size(); ++i) {
      t->clock_ms.push_back(Seconds(at_[i - 1], at_[i]) * 1e3);
    }
    const size_t n = std::min(objective.size(), at_.size());
    for (size_t i = 0; i < n; ++i) {
      if (objective[i] <= target) {
        t->time_to_target_s = Seconds(call, at_[i]);
        t->updates_to_target = pushes_[i];
        return;
      }
    }
  }

 private:
  std::vector<Clock::time_point> at_;
  std::vector<int64_t> pushes_;
  Counter* push_count_ = GlobalMetrics().counter("ps.push.count");
};

// Empty when `final_objective` passes: finite, below the initial ln 2
// (w = 0) and at most the workload's ceiling.
std::string FinalObjectiveFailure(double final_objective, double ceiling) {
  if (!std::isfinite(final_objective)) return "final objective is not finite";
  if (final_objective >= std::log(2.0)) {
    return "final objective not below the initial ln 2";
  }
  if (final_objective > ceiling) {
    return "final objective above the workload ceiling";
  }
  return "";
}

void CheckObjective(double final_objective, double ceiling, Trial* t) {
  t->final_objective = final_objective;
  const std::string why = FinalObjectiveFailure(final_objective, ceiling);
  if (!why.empty()) Fail(t, why);
  if (t->time_to_target_s < 0.0) Fail(t, "target objective never reached");
}

// Trials of one run draw their data from seeds derived from the run
// seed, so a run's medians average over several draws.
uint64_t TrialSeed(uint64_t run_seed, size_t trial) {
  return run_seed * 1000003u + trial;
}

struct TrialSpec {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  double target = 0.0;
  double ceiling = 0.0;
  int workers = 1;  // overrides w->workers (the one-worker leg)
  int clocks = 1;
};

Trial RunTrial(const TrialSpec& spec) {
  const Workload& w = *spec.w;
  Trial t;
  const Clock::time_point start = Clock::now();
  const Dataset data = MakeData(w, spec.seed);
  std::unique_ptr<ConsolidationRule> rule = MakeConsolidationRule(w.rule);
  std::unique_ptr<LossFunction> loss = MakeLoss("logistic");
  const FixedRate schedule(w.lr);
  EpochLog epochs(spec.clocks);
  GlobalMetrics().ResetValues();
  t.worker_clocks = static_cast<int64_t>(spec.workers) * spec.clocks;

  if (w.runtime == Runtime::kRpc) {
    DistributedTrainerOptions o;
    o.sync = SyncPolicy::Ssp(kStaleness);
    o.max_clocks = spec.clocks;
    o.l2 = kL2;
    o.batch_fraction = kBatchFraction;
    o.num_workers = spec.workers;
    o.num_servers = w.servers;
    o.eval_sample = kEvalSample;
    o.seed = spec.seed;
    o.delta_pull = true;
    o.push_window = 0;
    o.on_epoch = epochs.Hook();
    const Clock::time_point call = Clock::now();
    Result<DistributedTrainResult> r =
        TrainDistributed(data, *loss, schedule, *rule, o);
    t.train_s = Seconds(call, Clock::now());
    if (!r.ok()) {
      Fail(&t, "TrainDistributed: " + r.status().ToString());
      return t;
    }
    epochs.Fill(start, call, r.value().objective_per_clock, spec.target, &t);
    CheckObjective(r.value().final_objective, spec.ceiling, &t);
    if (r.value().rpc_retries != 0) Fail(&t, "rpc retries");
    if (r.value().faults.total() != 0) Fail(&t, "bus faults");
    return t;
  }

  if (w.runtime == Runtime::kThreaded) {
    ThreadedTrainerOptions o;
    o.sync = SyncPolicy::Ssp(kStaleness);
    o.max_clocks = spec.clocks;
    o.l2 = kL2;
    o.batch_fraction = kBatchFraction;
    o.num_servers = w.servers;
    o.partitions_per_server = w.partitions_per_server;
    o.num_workers = spec.workers;
    o.eval_sample = kEvalSample;
    o.delta_pull = true;
    o.push_window = 0;
    o.seed = spec.seed;
    o.on_epoch = epochs.Hook();
    const Clock::time_point call = Clock::now();
    const ThreadedTrainResult r =
        TrainThreaded(data, *loss, schedule, *rule, o);
    t.train_s = Seconds(call, Clock::now());
    epochs.Fill(start, call, r.objective_per_clock, spec.target, &t);
    CheckObjective(r.final_objective, spec.ceiling, &t);
    return t;
  }

  const ClusterConfig cluster = ClusterConfig::WithStragglers(
      spec.workers, w.servers, /*hl=*/2.0, /*fraction=*/0.2);
  SimOptions o;
  o.sync = SyncPolicy::Ssp(kStaleness);
  o.max_clocks = spec.clocks;
  o.stop_on_convergence = false;
  o.objective_tolerance = spec.target;
  o.l2 = kL2;
  o.batch_fraction = kBatchFraction;
  o.eval_sample = kEvalSample;
  o.partitions_per_server = w.partitions_per_server;
  o.seed = spec.seed;
  o.on_epoch = epochs.Hook();
  const Clock::time_point call = Clock::now();
  SimResult r =
      RunSimulation(data, cluster, *rule, schedule, *loss, o, nullptr);
  t.train_s = Seconds(call, Clock::now());
  t.worker_clocks = r.total_pushes;
  epochs.Fill(start, call, r.objective_per_clock, spec.target, &t);
  CheckObjective(r.final_objective, spec.ceiling, &t);
  if (!r.converged) Fail(&t, "simulation never converged to the target");
  if (r.workers_blocked_at_end != 0) Fail(&t, "workers blocked at end");
  // The paper's statistical efficiency is the simulator's own count.
  t.updates_to_target = r.updates_to_converge;
  t.sim = std::move(r);
  return t;
}

void WriteTrial(const Trial& t, JsonOut* out) {
  out->Open('{');
  out->Field("setup_s", t.setup_s);
  out->Field("train_s", t.train_s);
  out->Field("worker_clocks", static_cast<double>(t.worker_clocks));
  out->Field("time_to_target_s", t.time_to_target_s);
  out->Field("updates_to_target", static_cast<double>(t.updates_to_target));
  out->Field("final_objective", t.final_objective);
  out->Field("failure", t.failure);
  out->Key("clock_ms");
  out->Open('[');
  for (double v : t.clock_ms) out->Num(v);
  out->Close(']');
  out->Close('}');
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Spans (--trace=1)
// ---------------------------------------------------------------------------

// One timed call. `parent` indexes the same worker's span log (-1 for a
// clock's root span); the pair (worker, clock) groups one worker
// clock's spans.
struct Span {
  const char* name = "";
  int worker = 0;
  int clock = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t nnz = 0;  // core.run_clock only
};

using SpanLog = std::vector<Span>;

// Appends a span on construction and stamps its end on destruction.
// Spans are addressed by index because children grow the log.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int worker, int clock,
            int parent = -1)
      : log_(log), index_(static_cast<int>(log->size())) {
    Span s;
    s.name = name;
    s.worker = worker;
    s.clock = clock;
    s.parent = parent;
    s.start_ns = NanosSinceStart(Clock::now());
    log->push_back(s);
  }
  ~SpanScope() {
    (*log_)[static_cast<size_t>(index_)].end_ns =
        NanosSinceStart(Clock::now());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int index() const { return index_; }
  Span& span() { return (*log_)[static_cast<size_t>(index_)]; }

 private:
  SpanLog* log_;
  int index_;
};

// Writes every leg's spans as one Chrome trace: one "X" event per span,
// sorted by start, with the span id and its parent's id in args.
std::string ChromeTraceJson(const std::vector<SpanLog>& logs) {
  struct Row {
    const Span* span;
    int64_t id;
    int64_t parent_id;
  };
  std::vector<Row> rows;
  int64_t base = 1;
  for (const SpanLog& log : logs) {
    for (size_t i = 0; i < log.size(); ++i) {
      const Span& s = log[i];
      rows.push_back({&s, base + static_cast<int64_t>(i),
                      s.parent < 0 ? 0 : base + s.parent});
    }
    base += static_cast<int64_t>(log.size());
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.span->start_ns < b.span->start_ns;
  });
  JsonOut out;
  out.Open('{');
  out.Key("traceEvents");
  out.Open('[');
  for (const Row& r : rows) {
    const Span& s = *r.span;
    out.Open('{');
    out.Field("name", std::string(s.name));
    out.Field("ph", std::string("X"));
    out.Field("ts", static_cast<double>(s.start_ns) / 1e3);
    out.Field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out.Field("pid", 1.0);
    out.Field("tid", static_cast<double>(s.worker));
    out.Key("args");
    out.Open('{');
    out.Field("id", static_cast<double>(r.id));
    out.Field("parent", static_cast<double>(r.parent_id));
    out.Field("clock", static_cast<double>(s.clock));
    if (s.nnz > 0) out.Field("nnz", static_cast<double>(s.nnz));
    out.Close('}');
    out.Close('}');
  }
  out.Close(']');
  out.Field("displayTimeUnit", std::string("ms"));
  out.Close('}');
  return out.str();
}

// ---------------------------------------------------------------------------
// Traced legs: Algorithm 1 through the trainers' public calls
// ---------------------------------------------------------------------------

constexpr size_t kSampleUpdates = 256;
constexpr size_t kSpanLegs = 6;

struct TracedLeg {
  double train_s = 0.0;
  int64_t worker_clocks = 0;
  std::vector<SpanLog> spans;  // one log per worker
  std::vector<SparseVector> sample_updates;  // worker 0's first updates
  int64_t pulled_bytes = 0;
  int64_t pulled_bytes_full = 0;
  int64_t rpc_retries = 0;
  int num_partitions = 0;
  double final_objective = 0.0;  // of the PS snapshot after the leg
  std::string failure;
};

// Runs the worker loop `body(m, &log)` on one thread per worker.
void RunWorkers(int workers, int clocks,
                const std::function<void(int, SpanLog*)>& body,
                TracedLeg* leg) {
  leg->spans.assign(static_cast<size_t>(workers), SpanLog());
  for (SpanLog& log : leg->spans) log.reserve(static_cast<size_t>(clocks) * 6);
  std::vector<std::thread> threads;
  const Clock::time_point call = Clock::now();
  for (int m = 0; m < workers; ++m) {
    threads.emplace_back(body, m, &leg->spans[static_cast<size_t>(m)]);
  }
  for (std::thread& th : threads) th.join();
  leg->train_s = Seconds(call, Clock::now());
  leg->worker_clocks = static_cast<int64_t>(workers) * clocks;
}

TracedLeg TraceRpc(const Workload& w, const Dataset& data,
                   const LossFunction& loss,
                   const LearningRateSchedule& schedule) {
  TracedLeg leg;
  std::unique_ptr<ConsolidationRule> rule = MakeConsolidationRule(w.rule);
  PsOptions ps_opts;
  ps_opts.num_servers = w.servers;
  ps_opts.sync = SyncPolicy::Ssp(kStaleness);
  ParameterServer ps(data.dimension(), w.workers, *rule, ps_opts);
  leg.num_partitions = ps.num_partitions();
  MessageBus bus;
  PsService service(&ps, &bus, "ps");
  if (!service.status().ok()) {
    leg.failure = "PsService: " + service.status().ToString();
    return leg;
  }
  const std::vector<DataShard> shards =
      SplitData(data.size(), static_cast<size_t>(w.workers),
                ShardingPolicy::kContiguous);
  std::vector<Status> status(static_cast<size_t>(w.workers));
  std::vector<int64_t> pulled(status.size()), full(status.size()),
      retries(status.size());
  auto body = [&](int m, SpanLog* log) {
    const size_t mi = static_cast<size_t>(m);
    RpcWorkerClient client(m, &bus, "ps", RpcRetryPolicy(), /*window=*/0);
    LocalWorkerSgd::Options sgd_opts;
    sgd_opts.batch_size = LocalWorkerSgd::BatchSizeForFraction(
        shards[mi].size(), kBatchFraction);
    sgd_opts.l2 = kL2;
    LocalWorkerSgd sgd(&data, shards[mi], &loss, &schedule, sgd_opts);
    std::vector<double> replica;
    int cmin = 0;
    Status st = client.PullCached(&replica, &cmin);
    for (int c = 0; c < w.clocks && st.ok(); ++c) {
      SpanScope root(log, "engine.clock", m, c);
      SparseVector update;
      {
        SpanScope s(log, "core.run_clock", m, c, root.index());
        s.span().nnz = static_cast<int64_t>(
            sgd.RunClock(c, &replica, &update).nnz_processed);
      }
      {
        SpanScope s(log, "net.push", m, c, root.index());
        st = client.Push(c, update);
      }
      if (!st.ok()) break;
      if (m == 0) {
        SpanScope s(log, "data.eval", m, c, root.index());
        data.ObjectiveSample(loss, replica, kL2, EvalSample(data));
        if (leg.sample_updates.size() < kSampleUpdates) {
          leg.sample_updates.push_back(update);
        }
      }
      if (ps_opts.sync.NeedsPull(c, cmin)) {
        {
          SpanScope s(log, "net.admission", m, c, root.index());
          st = client.WaitUntilCanAdvance(c + 1);
        }
        if (!st.ok()) break;
        SpanScope s(log, "net.pull", m, c, root.index());
        st = client.PullCached(&replica, &cmin);
      }
    }
    if (st.ok()) st = client.Flush();
    status[mi] = st;
    pulled[mi] = client.pulled_bytes();
    full[mi] = client.pulled_bytes_full();
    retries[mi] = client.retry_count();
  };
  RunWorkers(w.workers, w.clocks, body, &leg);
  leg.final_objective =
      data.ObjectiveSample(loss, ps.Snapshot(), kL2, EvalSample(data));
  for (size_t m = 0; m < status.size(); ++m) {
    if (!status[m].ok() && leg.failure.empty()) {
      leg.failure = "worker " + std::to_string(m) + ": " +
                    status[m].ToString();
    }
    leg.pulled_bytes += pulled[m];
    leg.pulled_bytes_full += full[m];
    leg.rpc_retries += retries[m];
  }
  return leg;
}

TracedLeg TraceThreaded(const Workload& w, const Dataset& data,
                        const LossFunction& loss,
                        const LearningRateSchedule& schedule) {
  TracedLeg leg;
  std::unique_ptr<ConsolidationRule> rule = MakeConsolidationRule(w.rule);
  PsOptions ps_opts;
  ps_opts.num_servers = w.servers;
  ps_opts.partitions_per_server = w.partitions_per_server;
  ps_opts.sync = SyncPolicy::Ssp(kStaleness);
  ParameterServer ps(data.dimension(), w.workers, *rule, ps_opts);
  leg.num_partitions = ps.num_partitions();
  const std::vector<DataShard> shards =
      SplitData(data.size(), static_cast<size_t>(w.workers),
                ShardingPolicy::kContiguous);
  std::vector<int64_t> pulled(static_cast<size_t>(w.workers)),
      full(pulled.size());
  auto body = [&](int m, SpanLog* log) {
    const size_t mi = static_cast<size_t>(m);
    WorkerClient client(m, &ps, /*delta_pull=*/true, /*push_window=*/0);
    LocalWorkerSgd::Options sgd_opts;
    sgd_opts.batch_size = LocalWorkerSgd::BatchSizeForFraction(
        shards[mi].size(), kBatchFraction);
    sgd_opts.l2 = kL2;
    LocalWorkerSgd sgd(&data, shards[mi], &loss, &schedule, sgd_opts);
    std::vector<double> replica(static_cast<size_t>(data.dimension()), 0.0);
    for (int c = 0; c < w.clocks; ++c) {
      SpanScope root(log, "engine.clock", m, c);
      SparseVector update;
      {
        SpanScope s(log, "core.run_clock", m, c, root.index());
        s.span().nnz = static_cast<int64_t>(
            sgd.RunClock(c, &replica, &update).nnz_processed);
      }
      {
        SpanScope s(log, "ps.push", m, c, root.index());
        client.Push(c, update);
      }
      if (m == 0) {
        SpanScope s(log, "data.eval", m, c, root.index());
        data.ObjectiveSample(loss, replica, kL2, EvalSample(data));
        if (leg.sample_updates.size() < kSampleUpdates) {
          leg.sample_updates.push_back(update);
        }
      }
      // MaybePull is a no-op on clocks the SSP rule does not pull at;
      // only real pulls (admission wait included) get a span.
      if (ps.options().sync.NeedsPull(c, client.cached_cmin())) {
        SpanScope s(log, "ps.pull", m, c, root.index());
        client.MaybePull(c, &replica);
      }
    }
    client.Flush();
    pulled[mi] = client.pulled_bytes();
    full[mi] = client.pulled_bytes_full();
  };
  RunWorkers(w.workers, w.clocks, body, &leg);
  leg.final_objective =
      data.ObjectiveSample(loss, ps.Snapshot(), kL2, EvalSample(data));
  for (size_t m = 0; m < pulled.size(); ++m) {
    leg.pulled_bytes += pulled[m];
    leg.pulled_bytes_full += full[m];
  }
  return leg;
}

// ---------------------------------------------------------------------------
// Registry read-out: the series the program keeps, summed over legs
// ---------------------------------------------------------------------------

struct MeanAcc {
  double sum = 0.0;
  int64_t count = 0;
  void Add(const HistogramMetric& h) {
    sum += h.sum();
    count += h.count();
  }
  double Mean() const { return count == 0 ? 0.0 : sum / count; }
};

// Quantile of a bucketed histogram at the highest percentile, up to
// `q`, that leaves at least ten samples beyond it.
double TailQuantile(const HistogramMetric& h, double q) {
  const int64_t n = h.count();
  if (n == 0) return 0.0;
  const double reachable = 1.0 - 10.0 / static_cast<double>(n);
  return static_cast<double>(
      h.ValueAtQuantile(std::max(0.5, std::min(q, reachable))));
}

class RegistryTotals {
 public:
  // Copies the current GlobalMetrics() values of the series the ledger
  // names into the running totals.
  void Absorb(int num_partitions) {
    MetricsRegistry& g = GlobalMetrics();
    bus_latency_us_.Merge(*g.histogram("bus.rpc_latency_us"));
    handle_push_.Add(*g.histogram("rpc.handle_us", {{"op", "push"}}));
    handle_pull_delta_.Add(
        *g.histogram("rpc.handle_us", {{"op", "pull_delta"}}));
    can_advance_calls_ +=
        g.histogram("rpc.handle_us", {{"op", "can_advance"}})->count();
    admission_wait_.Add(*g.histogram("ps.admission_wait_us"));
    pushes_ += g.counter("ps.push.count")->value();
    for (int p = 0; p < num_partitions; ++p) {
      const MetricLabels labels = {{"partition", std::to_string(p)}};
      push_apply_.Add(*g.histogram("ps.push_apply_us", labels));
      push_lock_wait_.Add(*g.histogram("ps.push_lock_wait_us", labels));
      pull_piece_[p].Add(*g.histogram("ps.pull_piece_us", labels));
    }
    for (const char* name :
         {"bus.delivered", "pull.cache_hit", "pull.partitions_shipped",
          "pull.delta_hits", "pull.bytes_shipped"}) {
      counters_[name] += g.counter(name)->value();
    }
  }

  void Write(bool rpc, int64_t worker_clocks, JsonOut* out) const {
    const double clocks =
        static_cast<double>(std::max<int64_t>(1, worker_clocks));
    if (rpc) {
      out->Field("net.bus_rpc_latency_us_p50",
                 static_cast<double>(bus_latency_us_.ValueAtQuantile(0.5)));
      out->Field("net.bus_rpc_latency_us_p99",
                 TailQuantile(bus_latency_us_, 0.99));
      out->Field("net.bus_rpc_latency_count",
                 static_cast<double>(bus_latency_us_.count()));
      out->Field("net.handle_push_us_mean", handle_push_.Mean());
      out->Field("net.handle_pull_delta_us_mean", handle_pull_delta_.Mean());
      out->Field("net.admission_probes_per_clock",
                 static_cast<double>(can_advance_calls_) / clocks);
      out->Field("net.messages_per_clock",
                 static_cast<double>(Counter("bus.delivered")) / clocks);
    }
    out->Field("ps.admission_wait_us_mean", admission_wait_.Mean());
    const double pushes = static_cast<double>(std::max<int64_t>(1, pushes_));
    out->Field("ps.push_apply_us_mean", push_apply_.sum / pushes);
    out->Field("ps.push_lock_wait_us_mean", push_lock_wait_.sum / pushes);
    MeanAcc all_pieces;
    double max_partition = 0.0;
    for (const auto& [p, acc] : pull_piece_) {
      all_pieces.sum += acc.sum;
      all_pieces.count += acc.count;
      max_partition = std::max(max_partition, acc.Mean());
    }
    out->Field("ps.pull_piece_us_mean", all_pieces.Mean());
    out->Field("ps.pull_piece_us_max_partition", max_partition);
    const double pieces = static_cast<double>(
        std::max<int64_t>(1, Counter("pull.cache_hit") +
                                 Counter("pull.partitions_shipped")));
    out->Field("ps.pull_bytes_per_clock",
               static_cast<double>(Counter("pull.bytes_shipped")) / clocks);
    out->Field("ps.delta_hit_frac",
               static_cast<double>(Counter("pull.delta_hits")) / pieces);
    out->Field("ps.cache_hit_frac",
               static_cast<double>(Counter("pull.cache_hit")) / pieces);
    out->Field("ps.pull_pieces", pieces);
  }

 private:
  int64_t Counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  HistogramMetric bus_latency_us_;
  MeanAcc handle_push_, handle_pull_delta_, admission_wait_;
  MeanAcc push_apply_, push_lock_wait_;
  std::map<int, MeanAcc> pull_piece_;
  int64_t can_advance_calls_ = 0;
  int64_t pushes_ = 0;
  std::map<std::string, int64_t> counters_;
};

// ---------------------------------------------------------------------------
// Isolated layer probes
// ---------------------------------------------------------------------------

template <typename Fn>
double MeanMicros(int reps, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < reps; ++i) fn(i);
  return Seconds(start, Clock::now()) * 1e6 / std::max(1, reps);
}

std::vector<uint8_t> EncodePushFrame(int worker, int clock,
                                     const SparseVector& update) {
  // The synchronous push frame RpcWorkerClient::Push sends.
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kPush));
  w.WriteI64(worker);
  w.WriteI64(clock);
  w.WriteSparseVector(update);
  return w.TakeBuffer();
}

struct CodecProbe {
  double encode_us = 0.0;
  double decode_us = 0.0;
  double frame_bytes = 0.0;
};

CodecProbe ProbeCodec(const std::vector<SparseVector>& updates) {
  CodecProbe probe;
  if (updates.empty()) return probe;
  const int reps = 4000;
  const size_t n = updates.size();
  std::vector<std::vector<uint8_t>> frames(n);
  probe.encode_us = MeanMicros(reps, [&](int i) {
    ByteWriter w;
    w.WriteSparseVector(updates[static_cast<size_t>(i) % n]);
    frames[static_cast<size_t>(i) % n] = w.TakeBuffer();
  });
  SparseVector decoded;
  bool ok = true;
  probe.decode_us = MeanMicros(reps, [&](int i) {
    ByteReader r(frames[static_cast<size_t>(i) % n]);
    ok = r.ReadSparseVector(&decoded).ok() && ok;
  });
  if (!ok) probe.decode_us = std::numeric_limits<double>::quiet_NaN();
  double bytes = 0.0;
  for (size_t i = 0; i < n; ++i) {
    bytes += static_cast<double>(EncodePushFrame(0, 0, updates[i]).size());
  }
  probe.frame_bytes = bytes / static_cast<double>(n);
  return probe;
}

// Round trip of a push-sized payload to an echo endpoint on a fresh bus.
double ProbeBusEchoP50(size_t payload_bytes) {
  MessageBus bus;
  if (!bus.RegisterEndpoint("echo", [](const Envelope& e) {
         return e.payload;
       }).ok()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const int reps = 2000;
  std::vector<double> us;
  us.reserve(reps);
  const std::vector<uint8_t> payload(payload_bytes, 0x5a);
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    BusReply reply = bus.BlockingCall("probe", "echo", payload,
                                      std::chrono::microseconds(0));
    if (!reply.ok()) return std::numeric_limits<double>::quiet_NaN();
    us.push_back(Seconds(start, Clock::now()) * 1e6);
  }
  std::nth_element(us.begin(), us.begin() + reps / 2, us.end());
  return us[reps / 2];
}

struct PsProbe {
  double push_us = 0.0;
  double pull_delta_us = 0.0;
};

// ParameterServer::Push and PullDelta on a twin PS with no bus, fed the
// run's recorded updates by the workload's workers in turn (clock c of
// every worker before clock c + 1); its telemetry goes to a private
// registry.
PsProbe ProbeTwinPs(const Workload& w, int64_t dim,
                    const std::vector<SparseVector>& updates) {
  PsProbe probe;
  if (updates.empty()) return probe;
  MetricsRegistry private_metrics;
  std::unique_ptr<ConsolidationRule> rule = MakeConsolidationRule(w.rule);
  PsOptions opts;
  opts.num_servers = w.servers;
  opts.partitions_per_server = w.partitions_per_server;
  opts.sync = SyncPolicy::Ssp(kStaleness);
  opts.metrics = &private_metrics;
  ParameterServer twin(dim, w.workers, *rule, opts);
  std::vector<std::vector<int64_t>> tags(
      static_cast<size_t>(w.workers),
      std::vector<int64_t>(static_cast<size_t>(twin.num_partitions()),
                           kNoCachedTag));
  const int reps = static_cast<int>(updates.size());
  double push_s = 0.0;
  double pull_s = 0.0;
  for (int i = 0; i < reps; ++i) {
    const int worker = i % w.workers;
    const int clock = i / w.workers;
    std::vector<int64_t>& cached = tags[static_cast<size_t>(worker)];
    const Clock::time_point t0 = Clock::now();
    twin.Push(worker, clock, updates[static_cast<size_t>(i)]);
    const Clock::time_point t1 = Clock::now();
    const DeltaPullResult r = twin.PullDelta(worker, cached);
    const Clock::time_point t2 = Clock::now();
    push_s += Seconds(t0, t1);
    pull_s += Seconds(t1, t2);
    for (size_t p = 0; p < r.partitions.size() && p < cached.size(); ++p) {
      cached[p] = r.partitions[p].tag;
    }
  }
  probe.push_us = push_s * 1e6 / reps;
  probe.pull_delta_us = pull_s * 1e6 / reps;
  return probe;
}

// ---------------------------------------------------------------------------
// --trace=1 run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double target = 0.0;
  double ceiling = 0.0;
  std::string out;
  std::string trace_out;
};

double ClocksPerSecond(const Trial& t) {
  return t.train_s > 0.0 ? static_cast<double>(t.worker_clocks) / t.train_s
                         : 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int TracedRun(const Args& args, const Workload& w, JsonOut* out) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  TrialSpec spec{&w, args.seed, args.target, args.ceiling, w.workers,
                 w.clocks};
  std::vector<std::string> failures;
  // Worker clocks attempted, and those of legs that failed a check.
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto account = [&](int64_t clocks, const std::string& failure) {
    attempted += clocks;
    if (failure.empty()) return;
    failed += clocks;
    failures.push_back(failure);
  };
  std::vector<double> untraced_cps, traced_cps;
  JsonOut layer;
  layer.Open('{');

  if (w.runtime == Runtime::kSim) {
    // The simulator runs on one thread and has no call boundaries to
    // span from outside: its layer numbers come from SimResult and
    // from probes at this workload's shapes.
    std::vector<Trial> trials;
    do {
      trials.push_back(RunTrial(spec));
    } while (Clock::now() < deadline);
    for (const Trial& t : trials) account(t.worker_clocks, t.failure);
    const Trial& t = trials.back();
    const SimResult& r = t.sim;
    WorkerTimeBreakdown sum;
    for (const WorkerTimeBreakdown& b : r.worker_breakdown) {
      sum.compute_seconds += b.compute_seconds;
      sum.comm_seconds += b.comm_seconds;
      sum.wait_seconds += b.wait_seconds;
    }
    const double workers =
        static_cast<double>(std::max<size_t>(1, r.worker_breakdown.size()));
    layer.Field("sim.virtual_compute_s", sum.compute_seconds / workers);
    layer.Field("sim.virtual_comm_s", sum.comm_seconds / workers);
    layer.Field("sim.virtual_wait_s", sum.wait_seconds / workers);
    layer.Field("sim.pull_bytes_shipped_frac",
                r.pull_bytes_full > 0
                    ? static_cast<double>(r.pull_bytes_shipped) /
                          static_cast<double>(r.pull_bytes_full)
                    : 0.0);
    layer.Field("sim.pull_bytes_full", static_cast<double>(r.pull_bytes_full));
    layer.Field("sim.virtual_time_to_target_s", r.run_time_seconds);
    layer.Field("sim.per_update_virtual_ms", r.per_update_seconds * 1e3);
    layer.Field("core.mean_staleness", r.mean_staleness);
    layer.Field("core.peak_live_versions",
                static_cast<double>(r.peak_live_versions));

    // Probes at this workload's shapes: one worker's RunClock on a
    // 1/30 shard, an objective evaluation, and the twin PS's push and
    // delta pull on updates of that shape.
    const Dataset data = MakeData(w, args.seed);
    std::unique_ptr<LossFunction> loss = MakeLoss("logistic");
    const FixedRate schedule(w.lr);
    const std::vector<DataShard> shards =
        SplitData(data.size(), static_cast<size_t>(w.workers),
                  ShardingPolicy::kContiguous);
    LocalWorkerSgd::Options sgd_opts;
    sgd_opts.batch_size = LocalWorkerSgd::BatchSizeForFraction(
        shards[0].size(), kBatchFraction);
    sgd_opts.l2 = kL2;
    LocalWorkerSgd sgd(&data, shards[0], loss.get(), &schedule, sgd_opts);
    std::vector<double> replica(static_cast<size_t>(data.dimension()), 0.0);
    std::vector<SparseVector> updates;
    const double run_clock_us =
        MeanMicros(static_cast<int>(kSampleUpdates), [&](int c) {
          SparseVector u;
          sgd.RunClock(c, &replica, &u);
          updates.push_back(std::move(u));
        });
    const double eval_us = MeanMicros(50, [&](int) {
      data.ObjectiveSample(*loss, replica, kL2, EvalSample(data));
    });
    const PsProbe ps_probe = ProbeTwinPs(w, data.dimension(), updates);
    // Per update one RunClock and one push; one pull per whole-model
    // pull the simulator accounted; one global evaluation every
    // SimOptions::eval_every_pushes updates and one per worker-0 clock.
    const double updates_n = static_cast<double>(r.total_pushes);
    const double pulls_n =
        static_cast<double>(r.pull_bytes_full) /
        (static_cast<double>(data.dimension()) * sizeof(double));
    const double evals_n =
        updates_n / SimOptions().eval_every_pushes +
        static_cast<double>(r.objective_per_clock.size());
    const double explained_s =
        (updates_n * (run_clock_us + ps_probe.push_us) +
         pulls_n * ps_probe.pull_delta_us + evals_n * eval_us) /
        1e6;
    layer.Field("sim.engine_remainder_frac",
                t.train_s > 0.0 ? 1.0 - explained_s / t.train_s : 0.0);
    layer.Field("sim.probe_run_clock_us", run_clock_us);
    layer.Field("sim.probe_eval_us", eval_us);
    layer.Field("ps.direct_push_us", ps_probe.push_us);
    layer.Field("ps.direct_pull_delta_us", ps_probe.pull_delta_us);
  } else {
    const bool rpc = w.runtime == Runtime::kRpc;
    const Dataset data = MakeData(w, args.seed);
    std::unique_ptr<LossFunction> loss = MakeLoss("logistic");
    const FixedRate schedule(w.lr);
    std::vector<TracedLeg> legs;
    RegistryTotals totals;
    int64_t traced_clocks = 0;
    do {
      const Trial untraced = RunTrial(spec);
      account(untraced.worker_clocks, untraced.failure);
      untraced_cps.push_back(ClocksPerSecond(untraced));
      GlobalMetrics().ResetValues();
      legs.push_back(rpc ? TraceRpc(w, data, *loss, schedule)
                         : TraceThreaded(w, data, *loss, schedule));
      TracedLeg& leg = legs.back();
      if (leg.failure.empty()) {
        leg.failure = FinalObjectiveFailure(leg.final_objective, args.ceiling);
      }
      if (rpc && leg.failure.empty() && leg.rpc_retries != 0) {
        leg.failure = "rpc retries in traced leg";
      }
      account(leg.worker_clocks, leg.failure);
      totals.Absorb(leg.num_partitions);
      traced_clocks += leg.worker_clocks;
      traced_cps.push_back(static_cast<double>(leg.worker_clocks) /
                           leg.train_s);
      // Spans of the first legs are plenty for the breakdown, and the
      // probes replay the first leg's updates; later legs only add to
      // the totals and the overhead estimate.
      if (legs.size() > kSpanLegs) legs.back().spans.clear();
      if (legs.size() > 1) legs.back().sample_updates.clear();
    } while (Clock::now() < deadline);

    // The single-worker baseline: same data and clock budget, one worker.
    TrialSpec single = spec;
    single.workers = 1;
    const Trial one = RunTrial(single);
    account(one.worker_clocks, one.failure);
    // Scaling efficiency of the fixed problem, on examples per second:
    // a clock of M workers covers a batch of each 1/M shard.
    const std::vector<DataShard> shards =
        SplitData(data.size(), static_cast<size_t>(w.workers),
                  ShardingPolicy::kContiguous);
    double batch_m = 0.0;
    for (const DataShard& shard : shards) {
      batch_m += static_cast<double>(
          LocalWorkerSgd::BatchSizeForFraction(shard.size(), kBatchFraction));
    }
    batch_m /= static_cast<double>(shards.size());
    const double batch_1 = static_cast<double>(
        LocalWorkerSgd::BatchSizeForFraction(data.size(), kBatchFraction));
    layer.Field("engine.scaling_eff",
                Median(untraced_cps) * batch_m /
                    (static_cast<double>(w.workers) * ClocksPerSecond(one) *
                     batch_1));
    layer.Field("engine.single_worker_clocks_per_s", ClocksPerSecond(one));

    totals.Write(rpc, traced_clocks, &layer);
    int64_t pulled = 0, pulled_full = 0, retries = 0;
    for (const TracedLeg& leg : legs) {
      pulled += leg.pulled_bytes;
      pulled_full += leg.pulled_bytes_full;
      retries += leg.rpc_retries;
    }
    layer.Field("ps.pull_bytes_saved_frac",
                pulled_full > 0 ? 1.0 - static_cast<double>(pulled) /
                                            static_cast<double>(pulled_full)
                                : 0.0);
    layer.Field("ps.pulled_bytes_full", static_cast<double>(pulled_full));
    if (rpc) layer.Field("net.rpc_retries", static_cast<double>(retries));

    const std::vector<SparseVector>& updates = legs.front().sample_updates;
    const PsProbe ps_probe = ProbeTwinPs(w, data.dimension(), updates);
    layer.Field("ps.direct_push_us", ps_probe.push_us);
    layer.Field("ps.direct_pull_delta_us", ps_probe.pull_delta_us);
    if (rpc) {
      const CodecProbe codec = ProbeCodec(updates);
      layer.Field("net.encode_push_us", codec.encode_us);
      layer.Field("net.decode_push_us", codec.decode_us);
      layer.Field("net.push_bytes_per_clock", codec.frame_bytes);
      layer.Field("net.bus_echo_rtt_us_p50",
                  ProbeBusEchoP50(static_cast<size_t>(codec.frame_bytes)));
    }

    std::vector<SpanLog> spans;
    for (TracedLeg& leg : legs) {
      for (SpanLog& log : leg.spans) spans.push_back(std::move(log));
    }
    const std::string trace = ChromeTraceJson(spans);
    const Status valid = ValidateChromeTraceJson(trace);
    if (!valid.ok()) failures.push_back("trace: " + valid.ToString());
    std::ofstream f(args.trace_out, std::ios::binary);
    f << trace;
    if (!f.good()) failures.push_back("cannot write " + args.trace_out);
  }
  layer.Close('}');

  if (!traced_cps.empty()) {
    out->Field("untraced_clocks_per_s", Median(untraced_cps));
    out->Field("traced_clocks_per_s", Median(traced_cps));
  }
  out->Field("attempted", static_cast<double>(attempted));
  out->Field("failed", static_cast<double>(failed));
  out->Key("layer");
  out->Raw(layer.str());
  out->Key("failures");
  out->Open('[');
  for (const std::string& f : failures) out->Str(f);
  out->Close(']');
  return failures.empty() ? 0 : 1;
}

int UntracedRun(const Args& args, const Workload& w, JsonOut* out) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  const TrialSpec spec{&w, args.seed, args.target, args.ceiling, w.workers,
                       w.clocks};
  std::vector<Trial> trials;
  do {
    TrialSpec trial = spec;
    trial.seed = TrialSeed(args.seed, trials.size());
    trials.push_back(RunTrial(trial));
  } while (Clock::now() < deadline || trials.size() < 2);
  bool failed = false;
  out->Key("trials");
  out->Open('[');
  for (const Trial& t : trials) {
    WriteTrial(t, out);
    failed = failed || !t.failure.empty();
  }
  out->Close(']');
  return failed ? 1 : 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = a.substr(2, eq - 2);
    const std::string value = a.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::stoull(value);
    } else if (key == "seconds") {
      args->seconds = std::stod(value);
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "target") {
      args->target = std::stod(value);
    } else if (key == "ceiling") {
      args->ceiling = std::stod(value);
    } else if (key == "out") {
      args->out = value;
    } else if (key == "trace_out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->out.empty() &&
         args->target > 0.0 && args->ceiling > 0.0 &&
         (!args->trace || !args->trace_out.empty());
}

}  // namespace
}  // namespace hetps

int main(int argc, char** argv) {
  using namespace hetps;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfledger --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --target=T --ceiling=C --out=F "
                 "[--trace_out=F]\n");
    return 2;
  }
  Workload w;
  if (!LookupWorkload(args.workload, &w)) {
    std::fprintf(stderr, "perfledger: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (w.runtime == Runtime::kRpc && !PinToOneCpu()) {
    std::fprintf(stderr, "perfledger: cannot pin to one CPU\n");
    return 2;
  }
  JsonOut out;
  out.Open('{');
  out.Field("workload", w.name);
  out.Field("workers", static_cast<double>(w.workers));
  out.Field("clocks", static_cast<double>(w.clocks));
  const int rc =
      args.trace ? TracedRun(args, w, &out) : UntracedRun(args, w, &out);
  out.Field("peak_rss_mb", PeakRssMb());
  out.Close('}');
  std::ofstream f(args.out, std::ios::binary);
  f << out.str() << '\n';
  if (!f.good()) {
    std::fprintf(stderr, "perfledger: cannot write %s\n", args.out.c_str());
    return 2;
  }
  return rc;
}
