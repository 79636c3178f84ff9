// cynthia_e2e — end-to-end benchmark driver for the plan, simulate and serve
// paths (see README.md next to this file).
//
//   cynthia_e2e --workload plan|simulate|serve-day|serve-churn --seed S
//               --seconds T [--trace] [--smoke]
//
// Every input is generated here from --seed; the library only ever sees the
// generated inputs, through its public calls. One closed-loop client runs
// operations (a plan request, a simulated run, a service day) in balanced
// rounds, as many as take --seconds at this commit's speed, then checks the
// outputs. Untraced runs print the end-to-end metrics; --trace first runs
// half as many rounds untraced, then re-runs the same operations with a span
// around every layer call and telemetry attached, and prints the per-layer
// metrics.
//
// Output: human-readable lines, one "info {...}" line with the per-operation
// output digests and output-quality figures, and last the result object
// {"correct", "attempted", "failed", "metrics"}. Exit code 1 when any
// operation or check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"
#include "cloud/spot.hpp"
#include "core/loss_model.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "core/revocation.hpp"
#include "ddnn/cluster.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "models/zoo.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "orchestrator/sentinel.hpp"
#include "profiler/profiler.hpp"
#include "region/region.hpp"
#include "service/service.hpp"
#include "service/traffic.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cynthia;
using e2e::now_seconds;

// Set-up is repeated this many times in an untraced run; setup_s is the median.
constexpr int kSetupRepetitions = 3;

// ---------------------------------------------------------------- inputs

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Named input streams: each workload draws from its own, so adding a draw
/// to one never shifts another's inputs.
enum Stream : std::uint64_t { kPlanStream = 1, kSimStream, kServeStream, kDayStream };

std::uint64_t derive(std::uint64_t seed, Stream stream, std::uint64_t index) {
  return mix64(mix64(seed ^ mix64(stream)) + index);
}

/// The benchmark's own generator, so inputs stay fixed whatever the
/// library's util::Rng does.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix64(state_ += 0x632be59bd9b4e019ull); }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  void shuffle(std::vector<std::size_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[index(i)]);
  }

 private:
  std::uint64_t state_;
};

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

// ---------------------------------------------------------------- digests

/// FNV-1a over the raw bytes of the folded values.
class Digest {
 public:
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(double v) { bytes(&v, sizeof v); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 1099511628211ull;
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void add_plan(Digest& d, const core::ProvisionPlan& p) {
  d.add(static_cast<std::uint64_t>(p.feasible));
  if (!p.feasible) return;
  d.add(p.type.name);
  d.add(static_cast<std::uint64_t>(p.n_workers));
  d.add(static_cast<std::uint64_t>(p.n_ps));
  d.add(static_cast<std::uint64_t>(p.iterations));
  d.add(p.predicted_cost.value());
}

bool same_plan(const core::ProvisionPlan& a, const core::ProvisionPlan& b) {
  if (a.feasible != b.feasible) return false;
  return !a.feasible ||
         (a.type.name == b.type.name && a.n_workers == b.n_workers && a.n_ps == b.n_ps &&
          a.iterations == b.iterations && a.total_iterations == b.total_iterations &&
          a.predicted_time.value() == b.predicted_time.value() &&
          a.predicted_cost.value() == b.predicted_cost.value());
}

// ---------------------------------------------------------------- statistics

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------- host speed

volatile double g_reference_sink = 0.0;

/// Fixed, library-free work shaped like the simulator's hot loops (a binary
/// heap of timed events, scattered reads and writes over a 4 MiB array,
/// ordered-map inserts and erases). Shared hosts slow down for minutes at a
/// time; timing this next to every operation lets the benchmark report
/// operation times at a fixed host speed (see normalise()). Returns the
/// fastest of three passes, which filters out a preemption inside one.
double reference_seconds() {
  static std::vector<double> state(1 << 19, 1.0);  // allocated once: no page faults timed
  double best = 1e9;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = now_seconds();
    std::priority_queue<std::pair<double, std::uint32_t>,
                        std::vector<std::pair<double, std::uint32_t>>, std::greater<>>
        events;
    std::map<std::uint32_t, double> open;
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    double clock = 0.0;
    for (std::uint32_t i = 0; i < 4096; ++i) events.emplace(static_cast<double>(i), i);
    for (int step = 0; step < 30000; ++step) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto [t, id] = events.top();
      events.pop();
      clock = t;
      double& cell = state[(x >> 8) & (state.size() - 1)];
      cell = std::sqrt(cell + clock) / (1.0 + static_cast<double>(id & 7));
      if (x & 1) {
        open[static_cast<std::uint32_t>(x >> 40)] = cell;
      } else if (!open.empty()) {
        open.erase(open.begin());
      }
      events.emplace(clock + 1.0 + static_cast<double>(x & 255) / 64.0, id);
    }
    g_reference_sink = clock + state[x & (state.size() - 1)] + static_cast<double>(open.size());
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

/// reference_seconds() on an idle 2.1 GHz Xeon (KVM guest) with this
/// benchmark's Release build; normalised times are "seconds on that host".
constexpr double kReferenceSeconds = 0.0040;

/// Wall times at the fixed host speed kReferenceSeconds stands for:
/// sample i is scaled by kReferenceSeconds over the mean of the reference
/// timings taken just before it (reference[i]) and just after it
/// (reference[i + 1]).
std::vector<double> normalise(const std::vector<double>& seconds,
                              const std::vector<double>& reference) {
  std::vector<double> out(seconds.size());
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    out[i] = seconds[i] * kReferenceSeconds / (0.5 * (reference[i] + reference[i + 1]));
  }
  return out;
}

// ---------------------------------------------------------------- run state

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

/// What every operation shares: the span recorder and, during the traced
/// pass, the per-layer counters.
struct Run {
  e2e::SpanRecorder spans;
  bool tracing = false;  ///< traced pass: attach telemetry, count layer work
  std::map<std::string, double> counts;

  void count(const std::string& name, double v) {
    if (tracing) counts[name] += v;
  }
};

/// Runs `fn` inside a span named after the layer call it makes.
template <class Fn>
auto timed(Run& run, const char* name, Fn&& fn) {
  const auto span = run.spans.scope(name);
  return fn();
}

/// Trainer and simulator work of one run_training call, from its telemetry.
void count_sim(Run& run, const telemetry::MetricsRegistry& m) {
  namespace metric = telemetry::metric;
  run.count("ddnn.iterations", m.counter_value(metric::kIterations));
  run.count("sim.events_fired", m.counter_value(metric::kSimEvents));
  run.count("sim.fluid_settles", m.counter_value(metric::kFluidSettles));
  run.count("sim.fluid_flows_resolved", m.counter_value(metric::kFluidFlowsResolved));
  run.count("sim.fluid_flows_avoided", m.counter_value(metric::kFluidFlowsAvoided));
}

void count_planner(Run& run, const core::PlannerStats& s) {
  run.count("core.candidates_evaluated", static_cast<double>(s.candidates_evaluated));
  run.count("core.candidates_pruned", static_cast<double>(s.candidates_pruned));
  run.count("core.cache_hits", static_cast<double>(s.cache_hits));
  run.count("core.cache_misses", static_cast<double>(s.cache_misses));
}

/// One benchmark workload. Operation `index` depends only on the seed and
/// the index, so the traced pass re-runs exactly the untraced operations.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything operations need; timed as setup_s.
  virtual void setup(Run& run) = 0;
  /// Operations per balanced round; a run measures whole rounds.
  [[nodiscard]] virtual long round_size() const = 0;
  /// Normalised seconds one round takes at this commit: --seconds T runs
  /// round(T / round_seconds()) rounds, so a run does the same work on every
  /// host and every commit.
  [[nodiscard]] virtual double round_seconds() const = 0;
  /// Operations a --smoke run makes.
  [[nodiscard]] virtual long smoke_ops() const = 0;
  [[nodiscard]] virtual const char* op_span() const = 0;
  /// Runs one operation and returns the digest of its outputs; throws when
  /// a call or a check fails.
  virtual std::uint64_t run_op(Run& run, long index) = 0;
  /// Traced pass only, outside the operation's span: replays and
  /// cross-checks that need the operation's inputs or outputs.
  virtual void after_traced_op(Run& /*run*/, long /*index*/) {}
  /// Untimed checks over the whole run.
  virtual void finish() {}
  /// Output-quality figures of the untraced pass, as JSON members.
  [[nodiscard]] virtual std::string quality_json() const = 0;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---------------------------------------------------------------- plan

/// A `cynthiactl plan` request per zoo workload, with l_g drawn from a menu
/// whose every entry has a plan at the loose end of Tg in [30, 240] min.
struct ZooEntry {
  const char* name;
  std::vector<double> losses;
};

const std::vector<ZooEntry>& zoo() {
  static const std::vector<ZooEntry> kZoo = {
      {"mnist", {0.2, 0.3, 0.5}},   {"cifar10", {0.5, 0.8}},        {"resnet32", {1.5, 2.0}},
      {"vgg19", {0.4, 0.5, 0.8}},   {"resnet50", {2.0}},            {"alexnet", {1.0, 1.5, 2.0}},
      {"lstm", {1.5, 2.0}},
  };
  return kZoo;
}

ddnn::WorkloadSpec resolve_workload(const std::string& name) {
  for (const auto& w : ddnn::paper_workloads()) {
    if (w.name == name) return w;
  }
  return ddnn::workload_from_network(models::build_by_name(name));
}

struct PlanRequest {
  std::size_t workload = 0;  ///< index into zoo()
  std::size_t baseline = 0;  ///< index into PlanWorkload::baselines_
  core::ProvisionGoal goal;
  core::PredictorOptions predictor;
  bool spot = false;
  std::uint64_t market_seed = 0;
};

struct PlanOutcome {
  core::ProvisionPlan plan;
  std::optional<core::SpotProvisionPlan> spot;
  core::PlannerStats stats;
};

/// Cold CLI plan requests: every request profiles, trains the loss history
/// and searches from scratch, as a fresh `cynthiactl plan` process does.
class PlanWorkload final : public Workload {
 public:
  explicit PlanWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Run& run) override {
    const auto& catalog = cloud::Catalog::aws();
    specs_.clear();
    for (const auto& z : zoo()) specs_.push_back(resolve_workload(z.name));
    baselines_ = {catalog.at("m4.xlarge"), catalog.at("c3.xlarge"), catalog.at("r3.xlarge")};
    types_ = catalog.provisionable();
    cached_round_ = -1;
    // One fixed warm-up request, so the first measured request does not pay
    // for cold code and allocator pages.
    PlanRequest warm;
    warm.workload = 3;  // vgg19
    warm.goal = {util::minutes(120.0), 0.5};
    (void)execute(run, warm);
  }

  [[nodiscard]] long round_size() const override {
    return static_cast<long>(zoo().size() * 3);
  }
  [[nodiscard]] double round_seconds() const override { return 5.2; }
  [[nodiscard]] long smoke_ops() const override { return 3; }
  [[nodiscard]] const char* op_span() const override { return "op.plan"; }

  std::uint64_t run_op(Run& run, long index) override {
    const PlanRequest& rq = request(index);
    last_ = execute(run, rq);
    const core::ProvisionPlan& plan = last_.plan;
    check(!plan.feasible || plan.predicted_time <= rq.goal.time_goal,
          "plan: predicted time exceeds Tg");
    Digest d;
    add_plan(d, plan);
    if (last_.spot) {
      const core::SpotProvisionPlan& sp = *last_.spot;
      check(same_plan(sp.durable, plan), "plan_spot: durable reference differs from plan()");
      check(!sp.feasible || sp.expected_cost <= sp.durable.predicted_cost,
            "plan_spot: expected cost above the durable plan's");
      d.add(static_cast<std::uint64_t>(sp.feasible));
      d.add(static_cast<std::uint64_t>(sp.durability));
      add_plan(d, sp.plan);
      d.add(sp.expected_cost.value());
      d.add(sp.checkpoint_interval.value());
    }
    count_planner(run, last_.stats);
    if (!run.tracing) {
      requests_ += 1;
      if (plan.feasible) {
        feasible_ += 1;
        usd_ += plan.predicted_cost.value();
      }
    }
    return d.value();
  }

  /// The predictor composed layer by layer must plan exactly as
  /// Predictor::build does.
  void after_traced_op(Run& run, long index) override {
    const PlanRequest& rq = request(index);
    const auto span = run.spans.scope("check.predictor_build", index);
    const ddnn::WorkloadSpec& w = specs_[rq.workload];
    const core::Predictor pred = core::Predictor::build(w, baselines_[rq.baseline], rq.predictor);
    const core::Provisioner prov(pred.model(), pred.loss(), types_);
    check(same_plan(prov.plan(w.sync, rq.goal), last_.plan),
          "composed predictor plans differently from Predictor::build");
  }

  [[nodiscard]] std::string quality_json() const override {
    return "\"requests\":" + std::to_string(requests_) +
           ",\"feasible\":" + std::to_string(feasible_) +
           ",\"usd_mean\":" + json_number(ratio(usd_, static_cast<double>(feasible_)));
  }

 private:
  std::uint64_t seed_;
  std::vector<ddnn::WorkloadSpec> specs_;
  std::vector<cloud::InstanceType> baselines_;
  std::vector<cloud::InstanceType> types_;
  long cached_round_ = -1;
  std::vector<PlanRequest> round_;
  PlanOutcome last_;
  long requests_ = 0;
  long feasible_ = 0;
  double usd_ = 0.0;

  /// Round r holds every (workload, baseline) pair once, in a seeded order;
  /// a third of them (one baseline per workload) also price spot fleets.
  const PlanRequest& request(long index) {
    const long round = index / round_size();
    if (round != cached_round_) {
      InputRng rng(derive(seed_, kPlanStream, static_cast<std::uint64_t>(round)));
      std::vector<PlanRequest> cells;
      for (std::size_t w = 0; w < zoo().size(); ++w) {
        for (std::size_t b = 0; b < baselines_.size(); ++b) {
          PlanRequest rq;
          rq.workload = w;
          rq.baseline = b;
          rq.goal.time_goal = util::minutes(rng.uniform(30.0, 240.0));
          rq.goal.target_loss = zoo()[w].losses[rng.index(zoo()[w].losses.size())];
          rq.predictor.loss_history_seed = rng.next();
          rq.predictor.profile.seed = rng.next();
          rq.spot = b == w % baselines_.size();
          rq.market_seed = rng.next();
          cells.push_back(rq);
        }
      }
      std::vector<std::size_t> order = iota(cells.size());
      rng.shuffle(order);
      round_.clear();
      for (const std::size_t i : order) round_.push_back(cells[i]);
      cached_round_ = round;
    }
    return round_[static_cast<std::size_t>(index % round_size())];
  }

  /// Predictor::build split at its layer boundaries (profile, loss-history
  /// training, loss fit), with telemetry on the training run.
  core::Predictor compose_predictor(Run& run, const ddnn::WorkloadSpec& w,
                                    const cloud::InstanceType& baseline,
                                    const core::PredictorOptions& po) {
    profiler::ProfileResult profile = timed(run, "profiler.profile", [&] {
      return profiler::profile_workload(w, baseline, po.profile);
    });
    const ddnn::TrainResult history = timed(run, "ddnn.train", [&] {
      telemetry::Telemetry tel;
      ddnn::TrainOptions prior;
      prior.iterations = po.loss_history_iterations;
      prior.seed = po.loss_history_seed;
      prior.telemetry = &tel;
      const auto cluster = ddnn::ClusterSpec::homogeneous(baseline, po.loss_history_workers, 1);
      ddnn::TrainResult out = ddnn::run_training(cluster, w, prior);
      count_sim(run, tel.metrics);
      return out;
    });
    return timed(run, "core.loss_fit", [&] {
      return core::Predictor(std::move(profile),
                             core::LossModel::fit_run(w.sync, history, po.loss_history_workers));
    });
  }

  PlanOutcome execute(Run& run, const PlanRequest& rq) {
    const ddnn::WorkloadSpec& w = specs_[rq.workload];
    const cloud::InstanceType& baseline = baselines_[rq.baseline];
    const core::Predictor pred =
        run.tracing ? compose_predictor(run, w, baseline, rq.predictor)
                    : timed(run, "core.predictor_build",
                            [&] { return core::Predictor::build(w, baseline, rq.predictor); });
    PlanOutcome out;
    std::optional<core::Provisioner> prov;
    {
      const auto span = run.spans.scope("core.plan");
      prov.emplace(pred.model(), pred.loss(), types_);
      out.plan = prov->plan(w.sync, rq.goal);
    }
    if (rq.spot) {
      std::optional<cloud::SpotMarket> market;
      timed(run, "cloud.spot_market",
            [&] { market.emplace(cloud::Catalog::aws(), rq.market_seed); });
      out.spot = timed(run, "core.plan_spot",
                       [&] { return prov->plan_spot(w.sync, rq.goal, *market); });
    }
    out.stats = prov->stats();
    return out;
  }
};

// ---------------------------------------------------------------- simulate

enum class Variant {
  kPlain,     ///< deploy -> run_training -> teardown, fault-free
  kFaults,    ///< the same under a rate:8 fault schedule
  kSentinel,  ///< SloSentinel::run under faults, journal on, report rendered
};

struct Shape {
  std::size_t workload = 0;  ///< index into ddnn::paper_workloads()
  int n_wk = 0;
  int n_ps = 0;
  long iterations = 0;
  Variant variant = Variant::kPlain;
};

/// One round: each paper workload at each cluster size, since the trainer's
/// cost grows with the cluster (superlinearly under BSP). BSP runs are
/// shorter to keep a round near six seconds; their largest shapes keep one
/// PS, whose two-PS runs cost three times as much. Variants rotate so half
/// the runs carry faults and a quarter go through the sentinel.
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> kShapes = [] {
    const int sizes[] = {2, 4, 8, 13, 16, 24, 32};
    const char* ps_rows[] = {"2121211", "1212211", "1212121", "2121212"};
    const long iterations[] = {500, 500, 2000, 2000};
    const Variant cycle[] = {Variant::kPlain, Variant::kFaults, Variant::kSentinel,
                             Variant::kPlain};
    std::vector<Shape> out;
    for (std::size_t w = 0; w < 4; ++w) {
      for (std::size_t s = 0; s < 7; ++s) {
        out.push_back({w, sizes[s], ps_rows[w][s] - '0', iterations[w], cycle[out.size() % 4]});
      }
    }
    return out;
  }();
  return kShapes;
}

struct SimRequest {
  std::size_t shape = 0;
  std::uint64_t train_seed = 0;
  std::uint64_t fault_seed = 0;
  std::uint64_t deploy_seed = 0;
};

/// `cynthiactl simulate`/`report`-equivalent runs on m4.xlarge clusters.
class SimulateWorkload final : public Workload {
 public:
  explicit SimulateWorkload(std::uint64_t seed) : seed_(seed) {}

  /// One predictor per paper workload, for the prediction-error figure.
  void setup(Run& run) override {
    predictors_.clear();
    for (const auto& w : ddnn::paper_workloads()) {
      predictors_.push_back(timed(run, "core.predictor_build", [&] {
        return core::Predictor::build(w, cloud::Catalog::aws().at("m4.xlarge"));
      }));
    }
    cached_round_ = -1;
  }

  [[nodiscard]] long round_size() const override { return static_cast<long>(shapes().size()); }
  [[nodiscard]] double round_seconds() const override { return 6.7; }
  [[nodiscard]] long smoke_ops() const override { return 3; }
  [[nodiscard]] const char* op_span() const override { return "op.simulate"; }

  std::uint64_t run_op(Run& run, long index) override {
    const SimRequest& rq = request(index);
    const Shape& sh = shapes()[rq.shape];
    const ddnn::WorkloadSpec& w = ddnn::paper_workloads()[sh.workload];
    const cloud::InstanceType& type = cloud::Catalog::aws().at("m4.xlarge");
    const core::Predictor& pred = predictors_[sh.workload];

    core::ProvisionPlan plan;
    plan.feasible = true;
    plan.type = type;
    plan.n_workers = sh.n_wk;
    plan.n_ps = sh.n_ps;
    plan.iterations = plan.total_iterations = sh.iterations;
    plan.predicted_time =
        pred.predict_time(ddnn::ClusterSpec::homogeneous(type, sh.n_wk, sh.n_ps), w, sh.iterations);
    plan.t_iter = plan.predicted_time.value() / static_cast<double>(sh.iterations);
    plan.predicted_cost = core::plan_cost(type, sh.n_wk, sh.n_ps, plan.predicted_time);

    faults::FaultSchedule schedule;
    if (sh.variant != Variant::kPlain) {
      schedule = timed(run, "faults.schedule", [&] {
        faults::FaultRates rates;  // `--faults rate:8`, split over the four classes
        rates.crash_per_hour = rates.slowdown_per_hour = rates.nic_per_hour =
            rates.blip_per_hour = 2.0;
        return faults::FaultSchedule::generate(rates, 3600.0, sh.n_wk, sh.n_ps, rq.fault_seed);
      });
    }
    ddnn::TrainOptions o;
    o.iterations = sh.iterations;
    o.seed = rq.train_seed;
    if (!schedule.empty()) o.faults = &schedule;

    const ddnn::TrainResult r =
        sh.variant == Variant::kSentinel ? sentinel_run(run, index, w, plan, schedule, o)
                                         : deployed_run(run, w, pred, plan, rq.deploy_seed, o);
    check(r.total_time > 0.0 && std::isfinite(r.total_time), "simulate: bad total time");
    check(std::isfinite(r.final_loss), "simulate: non-finite loss");
    run.count("faults.injected", static_cast<double>(r.faults.injected));
    if (sh.variant == Variant::kPlain) {
      check(r.iterations == sh.iterations && !r.stopped_early,
            "simulate: fault-free run did not finish its iterations");
    }
    if (!run.tracing) {
      runs_ += 1;
      iterations_ += static_cast<double>(r.iterations);
      if (sh.variant == Variant::kPlain) {
        pred_errors_.push_back(std::abs(last_prediction_ / r.total_time - 1.0));
      }
    }
    Digest d;
    d.add(r.total_time);
    d.add(static_cast<std::uint64_t>(r.iterations));
    d.add(r.final_loss);
    d.add(last_cost_);
    d.add(last_journal_digest_);
    return d.value();
  }

  /// The paper's central claim, gated: the model predicts the simulator.
  void finish() override {
    check(quantile(pred_errors_, 0.5) <= 0.10, "median prediction error above 10%");
  }

  [[nodiscard]] std::string quality_json() const override {
    return "\"runs\":" + std::to_string(runs_) + ",\"iterations\":" + json_number(iterations_) +
           ",\"pred_err_p50\":" + json_number(quantile(pred_errors_, 0.5)) +
           ",\"pred_err_max\":" +
           json_number(pred_errors_.empty()
                           ? 0.0
                           : *std::max_element(pred_errors_.begin(), pred_errors_.end()));
  }

 private:
  std::uint64_t seed_;
  std::vector<core::Predictor> predictors_;
  long cached_round_ = -1;
  std::vector<SimRequest> round_;
  double last_cost_ = 0.0;
  double last_prediction_ = 0.0;
  std::uint64_t last_journal_digest_ = 0;
  long runs_ = 0;
  double iterations_ = 0.0;
  std::vector<double> pred_errors_;

  const SimRequest& request(long index) {
    const long round = index / round_size();
    if (round != cached_round_) {
      InputRng rng(derive(seed_, kSimStream, static_cast<std::uint64_t>(round)));
      std::vector<SimRequest> cells;
      for (std::size_t s = 0; s < shapes().size(); ++s) {
        cells.push_back({s, rng.next(), rng.next(), rng.next()});
      }
      std::vector<std::size_t> order = iota(cells.size());
      rng.shuffle(order);
      round_.clear();
      for (const std::size_t i : order) round_.push_back(cells[i]);
      cached_round_ = round;
    }
    return round_[static_cast<std::size_t>(index % round_size())];
  }

  /// ClusterManager::deploy -> run_training -> teardown, billed from launch
  /// to the end of training (orch::TrainingService::submit's sequence).
  ddnn::TrainResult deployed_run(Run& run, const ddnn::WorkloadSpec& w,
                                 const core::Predictor& pred, const core::ProvisionPlan& plan,
                                 std::uint64_t deploy_seed, ddnn::TrainOptions o) {
    sim::Simulator control_plane;
    cloud::BillingMeter billing;
    orch::ClusterManager manager(control_plane, billing, deploy_seed);
    orch::Deployment deployment =
        timed(run, "orchestrator.deploy", [&] { return manager.deploy(plan); });
    ddnn::TrainResult r = timed(run, "ddnn.train", [&] {
      std::optional<telemetry::Telemetry> tel;
      if (run.tracing) {
        tel.emplace();
        o.telemetry = &*tel;
      }
      ddnn::TrainResult out = ddnn::run_training(deployment.spec, w, o);
      if (tel) count_sim(run, tel->metrics);
      return out;
    });
    last_cost_ = timed(run, "orchestrator.deploy", [&] {
      control_plane.run_until(deployment.ready_at + r.total_time);
      manager.teardown(deployment);
      return billing.total(util::Seconds{control_plane.now()}).value();
    });
    check(last_cost_ > 0.0, "simulate: run billed nothing");
    last_prediction_ = pred.predict_time(deployment.spec, w, plan.iterations).value();
    last_journal_digest_ = 0;
    return r;
  }

  /// `cynthiactl report`: sentinel run with the journal on, then the cost
  /// and audit ledgers and their JSON + HTML renderings.
  ddnn::TrainResult sentinel_run(Run& run, long index, const ddnn::WorkloadSpec& w,
                                 const core::ProvisionPlan& plan,
                                 const faults::FaultSchedule& schedule, ddnn::TrainOptions o) {
    telemetry::Telemetry tel;
    o.telemetry = &tel;
    o.trace_bucket_seconds = 1.0;
    orch::SentinelOptions so;
    so.seed = o.seed;
    so.training = o;
    const core::ProvisionGoal goal{plan.predicted_time * 1.25, 0.0};
    const orch::SentinelReport report = timed(run, "orchestrator.sentinel", [&] {
      return orch::SloSentinel(so).run(w, plan, schedule, goal);
    });
    const telemetry::RunReport rendered = timed(run, "telemetry.report_build", [&] {
      return telemetry::RunReport::build(tel.journal, "simulate op " + std::to_string(index));
    });
    timed(run, "telemetry.render", [&] {
      std::ostringstream json, html;
      rendered.write_json(json);
      rendered.write_html(html);
      check(json.tellp() > 0 && html.tellp() > 0, "report: empty rendering");
    });
    check(rendered.total_cost_dollars() == report.actual_cost.value(),
          "report: cost ledger differs from the meter");
    check(tel.journal.dropped() == 0, "report: journal dropped records");
    count_sim(run, tel.metrics);
    run.count("telemetry.journal_records", static_cast<double>(tel.journal.size()));
    last_cost_ = report.actual_cost.value();
    last_journal_digest_ = tel.journal.digest();
    return report.training;
  }
};

// ---------------------------------------------------------------- serve

/// Per-workload planner the traced pass replays the service's arrival
/// planning on: the same predictor inputs over the same stocked types.
struct ReplayPlanner {
  ddnn::WorkloadSpec spec;
  std::unique_ptr<core::Provisioner> prov;
};

/// One long-lived ProvisioningService fed 24 h diurnal traffic days.
/// serve-day: no revocations, no journal. serve-churn: revocations every 90
/// min on average, mixed spot fleets, and a fresh journal per day folded into
/// the cost ledger and the run report.
class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, bool churn, bool smoke, bool traced)
      : seed_(seed), churn_(churn), smoke_(smoke), traced_(traced) {}

  void setup(Run& run) override {
    service::ServeOptions so;
    so.seed = derive(seed_, kServeStream, 0);
    if (churn_) {
      so.mean_revocation_interval = util::minutes(90.0);
      so.spot_fleets = true;
    }
    svc_ = std::make_unique<service::ProvisioningService>(region::Region::parse(region_spec()),
                                                          cloud::Catalog::aws(), so);
    // One hand-built request per fleet workload makes the service build and
    // cache its four predictors before the first day.
    std::vector<service::JobRequest> warm;
    for (const service::WorkloadShare& share : service::default_workload_mix()) {
      service::JobRequest rq;
      rq.id = static_cast<long>(warm.size());
      rq.tenant = "setup";
      rq.workload = share.workload;
      rq.goal = {util::minutes(share.tg_minutes_hi), share.loss_choices.front()};
      warm.push_back(rq);
    }
    const service::FleetResult r =
        timed(run, "service.setup", [&] { return svc_->run(warm); });
    check(r.stats.completed == r.stats.submitted, "serve: set-up jobs did not complete");
    if (traced_) build_replay_planners(run);
    day0_digest_.reset();
  }

  [[nodiscard]] long round_size() const override { return 1; }
  [[nodiscard]] double round_seconds() const override { return churn_ ? 1.25 : 0.72; }
  [[nodiscard]] long smoke_ops() const override { return 1; }
  [[nodiscard]] const char* op_span() const override { return "op.day"; }

  std::uint64_t run_op(Run& run, long day) override {
    requests_ = timed(run, "service.traffic", [&] { return traffic(day); });
    std::optional<telemetry::Telemetry> tel;
    if (churn_) tel.emplace();
    result_ = timed(run, "service.run",
                    [&] { return svc_->run(requests_, tel ? &*tel : nullptr); });
    const service::FleetStats& s = result_.stats;
    check(s.submitted == static_cast<long>(requests_.size()) &&
              s.completed + s.rejected + s.timed_out + s.starved == s.submitted,
          "serve: job outcomes do not add up to the submitted jobs");
    if (tel) {
      const double ledger = timed(run, "telemetry.ledger", [&] {
        return telemetry::CostLedger::from(tel->journal).total().value();
      });
      check(ledger == s.total_cost.value(), "serve: cost ledger differs from the fleet total");
      check(tel->journal.dropped() == 0, "serve: journal dropped records");
      const telemetry::RunReport report = timed(run, "telemetry.report_build", [&] {
        return telemetry::RunReport::build(tel->journal, "day " + std::to_string(day));
      });
      check(report.journal_records == tel->journal.size(), "serve: report lost records");
      run.count("telemetry.journal_records", static_cast<double>(tel->journal.size()));
    }
    run.count("service.jobs", static_cast<double>(s.submitted));
    run.count("service.replans", static_cast<double>(s.replans));
    run.count("service.attempts", static_cast<double>(s.attempts));
    run.count("service.revocations", static_cast<double>(s.revocations));
    run.count("service.spot_attempts", static_cast<double>(s.spot_attempts));
    run.count("region.utilization", s.utilization);
    if (day == 0 && !day0_digest_) day0_digest_ = result_.digest;
    if (!run.tracing) {
      days_ += 1;
      jobs_ += static_cast<double>(s.submitted);
      slo_attained_ += static_cast<double>(s.slo_attained);
      usd_ += s.total_cost.value();
    }
    return result_.digest;
  }

  /// Replays, at the day's exact inputs, the work the service does inside
  /// run() that cannot be timed from outside.
  void after_traced_op(Run& run, long day) override {
    const auto& catalog = cloud::Catalog::aws();
    std::map<std::string, core::PlannerStats> before;
    for (const auto& [name, p] : replay_) before[name] = p.prov->stats();
    {
      // One plan() per arrival, as the service's on_arrival does.
      const auto span = run.spans.scope("core.arrival_plan_replay", day);
      for (const service::JobRequest& rq : requests_) {
        const ReplayPlanner& p = replay_.at(rq.workload);
        try {
          (void)p.prov->plan(p.spec.sync, rq.goal);
        } catch (const std::invalid_argument&) {
          // The service rejects such a job as "invalid goal" too.
        }
      }
    }
    for (const auto& [name, p] : replay_) {
      const core::PlannerStats now = p.prov->stats();
      const core::PlannerStats& was = before[name];
      count_planner(run, {now.plans - was.plans,
                          now.candidates_evaluated - was.candidates_evaluated,
                          now.candidates_pruned - was.candidates_pruned,
                          now.cache_hits - was.cache_hits, now.cache_misses - was.cache_misses});
    }
    {
      // One throwaway-sub-simulator deployment per attempt, as the service's
      // deploy_latency does.
      const auto span = run.spans.scope("orchestrator.deploy_replay", day);
      for (const service::JobOutcome& o : result_.outcomes) {
        for (int a = 1; a <= o.attempts; ++a) {
          sim::Simulator sub;
          cloud::BillingMeter meter;
          const std::uint64_t seed = mix64(static_cast<std::uint64_t>(o.request.id) * 31 + a);
          orch::ClusterManager manager(sub, meter, seed);
          try {
            orch::Deployment d = manager.deploy(o.plan);
            manager.teardown(d);
          } catch (const std::exception&) {
            // The service charges a fixed latency for a failed deployment.
          }
        }
      }
    }
    if (churn_) {
      // One interruption-model fit per instance type mixed fleets ran on.
      const auto span = run.spans.scope("core.spot_fit_replay", day);
      const cloud::SpotMarket market(catalog, svc_->options().seed);
      std::set<std::string> types;
      for (const service::JobOutcome& o : result_.outcomes) {
        if (o.revocations > 0) types.insert(o.plan.type.name);
      }
      for (const std::string& type : types) {
        (void)core::fit_interruption_model(
            market, catalog.at(type),
            util::DollarsPerHour{market.mean_price(type) * svc_->options().spot_bid_multiplier});
      }
    }
  }

  /// Day 0 again on the warm service must reproduce its outcomes; for
  /// serve-day the re-run also attaches a journal, which must change nothing
  /// and whose cost ledger must fold to the fleet total bit for bit.
  void finish() override {
    check(day0_digest_.has_value(), "serve: day 0 never ran");
    const std::vector<service::JobRequest> requests = traffic(0);
    telemetry::Telemetry tel;
    const service::FleetResult again = svc_->run(requests, churn_ ? nullptr : &tel);
    check(again.digest == *day0_digest_, "serve: day 0 re-run on the warm service diverged");
    if (!churn_) {
      check(telemetry::CostLedger::from(tel.journal).total().value() ==
                again.stats.total_cost.value(),
            "serve: cost ledger differs from the fleet total");
      check(tel.journal.dropped() == 0, "serve: journal dropped records");
    }
  }

  [[nodiscard]] std::string quality_json() const override {
    return "\"days\":" + std::to_string(days_) + ",\"jobs\":" + json_number(jobs_) +
           ",\"slo_attain_rate\":" + json_number(ratio(slo_attained_, jobs_)) +
           ",\"usd_per_goodput\":" + json_number(ratio(usd_, slo_attained_));
  }

 private:
  std::uint64_t seed_;
  bool churn_;
  bool smoke_;
  bool traced_;
  std::unique_ptr<service::ProvisioningService> svc_;
  std::map<std::string, ReplayPlanner> replay_;
  std::vector<service::JobRequest> requests_;
  service::FleetResult result_;
  std::optional<std::uint64_t> day0_digest_;
  long days_ = 0;
  double jobs_ = 0.0;
  double slo_attained_ = 0.0;
  double usd_ = 0.0;

  /// Sized for ~75% utilization at the day's load (docs/SERVICE.md).
  [[nodiscard]] const char* region_spec() const { return smoke_ ? "*=160" : "*=1536"; }

  [[nodiscard]] std::vector<service::JobRequest> traffic(long day) const {
    service::TrafficOptions t;
    t.jobs = smoke_ ? 1000 : 10000;
    t.seed = derive(seed_, kDayStream, static_cast<std::uint64_t>(day));
    return service::TrafficGenerator(t).generate();
  }

  void build_replay_planners(Run& run) {
    const auto& catalog = cloud::Catalog::aws();
    const service::ServeOptions& so = svc_->options();
    std::vector<cloud::InstanceType> stocked;
    for (const region::TypeCapacity& cap : svc_->region().capacities()) {
      if (const auto type = catalog.find(cap.type)) stocked.push_back(*type);
    }
    replay_.clear();
    for (const service::WorkloadShare& share : service::default_workload_mix()) {
      ReplayPlanner p;
      p.spec = ddnn::workload_by_name(share.workload);
      const core::Predictor pred = timed(run, "core.predictor_build", [&] {
        return core::Predictor::build(p.spec, catalog.at(so.baseline_type), so.predictor);
      });
      p.prov = std::make_unique<core::Provisioner>(pred.model(), pred.loss(), stocked);
      replay_.emplace(share.workload, std::move(p));
    }
  }
};

// ---------------------------------------------------------------- harness

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
};

std::optional<Options> parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--workload" && has_value) {
        o.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        o.seed = std::stoull(argv[++i]);
        have_seed = true;
      } else if (a == "--seconds" && has_value) {
        o.seconds = std::stod(argv[++i]);
      } else if (a == "--trace") {
        o.trace = true;
      } else if (a == "--smoke") {
        o.smoke = true;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  const std::set<std::string> known = {"plan", "simulate", "serve-day", "serve-churn"};
  if (!known.count(o.workload) || !have_seed || !(o.seconds > 0.0) || o.seconds > 600.0) {
    return std::nullopt;
  }
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "plan") return std::make_unique<PlanWorkload>(o.seed);
  if (o.workload == "simulate") return std::make_unique<SimulateWorkload>(o.seed);
  return std::make_unique<ServeWorkload>(o.seed, o.workload == "serve-churn", o.smoke, o.trace);
}

struct OpResult {
  double seconds = 0.0;    ///< wall time
  double reference = 0.0;  ///< reference_seconds() timed just before the op
  double normalised = 0.0; ///< wall time at the fixed host speed
  std::uint64_t digest = 0;
  bool ok = false;
};

/// Runs operations 0 .. n-1 with a reference-kernel timing before each and
/// after the last.
std::vector<OpResult> measure(Run& run, Workload& wl, long n, double* wall) {
  std::vector<OpResult> ops;
  const double t0 = now_seconds();
  for (long i = 0; i < n; ++i) {
    OpResult r;
    r.reference = reference_seconds();
    const double start = now_seconds();
    try {
      const auto span = run.spans.scope(wl.op_span(), i);
      r.digest = wl.run_op(run, i);
      r.ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %ld failed: %s\n", i, e.what());
    }
    r.seconds = now_seconds() - start;
    if (run.tracing) {
      try {
        wl.after_traced_op(run, i);
      } catch (const std::exception& e) {
        r.ok = false;
        std::fprintf(stderr, "op %ld traced cross-check failed: %s\n", i, e.what());
      }
    }
    ops.push_back(r);
  }
  std::vector<double> walls, reference;
  for (const OpResult& r : ops) {
    walls.push_back(r.seconds);
    reference.push_back(r.reference);
  }
  reference.push_back(reference_seconds());
  *wall = now_seconds() - t0;
  const std::vector<double> normalised = normalise(walls, reference);
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i].normalised = normalised[i];
  return ops;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Threads of this process (the benchmark promises a single-threaded run).
long thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      long n = 0;
      status >> n;
      return n;
    }
  }
  return 1;  // no procfs: nothing to check
}

/// A metric the benchmark reports, as "name": {"value": v, "unit": u}.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics from the traced pass. Time metrics are self seconds per
/// operation, except core.predictor_build_s, which is per set-up.
std::vector<Metric> layer_metrics(const Run& run, const std::vector<OpResult>& untraced,
                                  const std::vector<OpResult>& traced) {
  const std::vector<e2e::Span>& spans = run.spans.spans();
  const std::vector<double> self = run.spans.self_seconds();
  std::map<std::string, double> op_self, setup_self;
  double op_total = 0.0, op_unattributed = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const e2e::Span& s = spans[i];
    (s.request < 0 ? setup_self : op_self)[s.name] += self[i];
    if (s.request >= 0 && s.parent < 0 && s.name.rfind("op.", 0) == 0) {
      op_total += s.end - s.start;
      op_unattributed += self[i];
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, traced.size()));
  const auto count = [&](const char* name) {
    const auto it = run.counts.find(name);
    return it == run.counts.end() ? 0.0 : it->second;
  };
  std::vector<Metric> out;
  for (const char* layer :
       {"ddnn.train", "profiler.profile", "core.loss_fit", "core.plan", "core.plan_spot",
        "cloud.spot_market", "core.arrival_plan_replay", "core.spot_fit_replay",
        "orchestrator.deploy", "orchestrator.sentinel", "orchestrator.deploy_replay",
        "faults.schedule", "telemetry.report_build", "telemetry.render", "telemetry.ledger",
        "service.traffic", "service.run"}) {
    out.push_back({std::string(layer) + "_s", op_self[layer] / n, "s"});
  }
  out.push_back({"core.predictor_build_s", setup_self["core.predictor_build"], "s"});
  for (const char* name : {"ddnn.iterations", "sim.events_fired", "sim.fluid_settles",
                           "sim.fluid_flows_resolved", "sim.fluid_flows_avoided",
                           "core.candidates_evaluated", "core.candidates_pruned",
                           "faults.injected", "telemetry.journal_records",
                           "service.revocations", "service.spot_attempts"}) {
    out.push_back({name, count(name) / n, "count"});
  }
  const double hits = count("core.cache_hits");
  out.push_back({"core.cache_hit_rate", ratio(hits, hits + count("core.cache_misses")),
                 "fraction"});
  out.push_back({"service.replans_per_job", ratio(count("service.replans"), count("service.jobs")),
                 "count"});
  out.push_back({"service.attempts_per_job",
                 ratio(count("service.attempts"), count("service.jobs")), "count"});
  out.push_back({"service.replan_yield",
                 ratio(count("service.attempts"), count("service.replans")), "fraction"});
  out.push_back({"region.utilization", count("region.utilization") / n, "fraction"});
  out.push_back({"unattributed_frac", ratio(op_unattributed, op_total), "fraction"});
  double traced_s = 0.0, untraced_s = 0.0;
  for (std::size_t i = 0; i < traced.size() && i < untraced.size(); ++i) {
    traced_s += traced[i].normalised;
    untraced_s += untraced[i].normalised;
  }
  out.push_back({"trace_overhead_frac", ratio(traced_s, untraced_s) - 1.0, "fraction"});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> parsed = parse_options(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: cynthia_e2e --workload plan|simulate|serve-day|serve-churn --seed S"
                 " [--seconds T] [--trace] [--smoke]\n");
    return 2;
  }
  const Options& opt = *parsed;
  std::unique_ptr<Workload> wl = make_workload(opt);
  Run run;

  // Set-up: repeated in untraced runs, once (and traced) with --trace.
  std::vector<double> setup_times, setup_reference;
  run.spans.set_enabled(opt.trace);
  try {
    for (int rep = 0; rep < (opt.trace || opt.smoke ? 1 : kSetupRepetitions); ++rep) {
      setup_reference.push_back(reference_seconds());
      const auto span = run.spans.scope("setup");
      const double t0 = now_seconds();
      wl->setup(run);
      setup_times.push_back(now_seconds() - t0);
    }
    setup_reference.push_back(reference_seconds());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "set-up failed: %s\n", e.what());
    return 1;
  }
  run.spans.set_enabled(false);

  const double seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const long n_ops = opt.smoke ? wl->smoke_ops()
                               : wl->round_size() *
                                     std::max(1L, std::lround(seconds / wl->round_seconds()));
  double wall = 0.0;
  const std::vector<OpResult> ops = measure(run, *wl, n_ops, &wall);
  long attempted = static_cast<long>(ops.size());
  long failed = 0;
  for (const OpResult& r : ops) failed += r.ok ? 0 : 1;
  std::vector<std::string> run_failures;

  std::vector<OpResult> traced;
  if (opt.trace) {
    run.tracing = true;
    run.spans.set_enabled(true);
    double traced_wall = 0.0;
    traced = measure(run, *wl, n_ops, &traced_wall);
    run.spans.set_enabled(false);
    run.tracing = false;
    attempted += static_cast<long>(traced.size());
    for (std::size_t i = 0; i < traced.size(); ++i) {
      if (!traced[i].ok) {
        failed += 1;
      } else if (ops[i].ok && traced[i].digest != ops[i].digest) {
        failed += 1;
        std::fprintf(stderr, "op %zu: traced outputs differ from untraced\n", i);
      }
    }
  }

  try {
    wl->finish();
  } catch (const std::exception& e) {
    run_failures.push_back(e.what());
  }
  if (const long threads = thread_count(); threads != 1) {
    run_failures.push_back("process ran " + std::to_string(threads) + " threads");
  }

  std::vector<Metric> metrics;
  std::string raw_json, raw_line;
  if (opt.trace) {
    metrics = layer_metrics(run, ops, traced);
    for (const Metric& m : metrics) {
      if (m.name == "unattributed_frac" && m.value > 0.10 &&
          (opt.workload == "plan" || opt.workload == "simulate")) {
        run_failures.push_back("unattributed time above 10% of the traced operations");
      }
    }
    const std::string path = "bench_out/e2e/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    try {
      run.spans.write_chrome_json(path);
      std::printf("trace: %s (%zu spans)\n", path.c_str(), run.spans.spans().size());
    } catch (const std::exception& e) {
      run_failures.push_back(e.what());
    }
  } else {
    std::vector<double> latencies, raw, reference;
    double busy = 0.0;
    for (const OpResult& r : ops) {
      latencies.push_back(r.normalised);
      raw.push_back(r.seconds);
      reference.push_back(r.reference);
      busy += r.normalised;
    }
    metrics = {
        {"setup_s", quantile(normalise(setup_times, setup_reference), 0.5), "s"},
        {"op_p50_s", quantile(latencies, 0.5), "s"},
        {"op_p90_s", quantile(latencies, 0.9), "s"},
        {"ops_per_s", static_cast<double>(ops.size()) / busy, "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    raw_json = "\"raw_wall\":{\"setup_s\":" + json_number(quantile(setup_times, 0.5)) +
               ",\"op_p50_s\":" + json_number(quantile(raw, 0.5)) +
               ",\"op_p90_s\":" + json_number(quantile(raw, 0.9)) +
               ",\"ops_per_s\":" + json_number(static_cast<double>(ops.size()) / wall) +
               ",\"reference_p50_s\":" + json_number(quantile(reference, 0.5)) + "},";
    char line[160];
    std::snprintf(line, sizeof line,
                  "  raw wall: op p50 %.4f s, p90 %.4f s, %.3f op/s; reference kernel p50 %.5f s\n",
                  quantile(raw, 0.5), quantile(raw, 0.9), static_cast<double>(ops.size()) / wall,
                  quantile(reference, 0.5));
    raw_line = line;
  }
  for (const std::string& f : run_failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());
  failed += static_cast<long>(run_failures.size());
  failed = std::min(failed, attempted);
  const bool correct = failed == 0 && run_failures.empty();

  std::printf("%s seed %llu: %zu op(s) in %.3f s, set-up %.4f s (%zu rep)%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), ops.size(), wall,
              quantile(setup_times, 0.5), setup_times.size(), opt.smoke ? ", smoke" : "");
  std::fputs(raw_line.c_str(), stdout);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  Digest fold;
  std::string digests;
  for (const OpResult& r : ops) {
    fold.add(r.digest);
    digests += (digests.empty() ? "\"" : ",\"") + hex(r.digest) + "\"";
  }
  std::printf("info {\"workload\":\"%s\",\"seed\":%llu,\"mode\":\"%s\",\"digest\":\"%s\","
              "\"digests\":[%s],%s\"quality\":{%s}}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.smoke ? "smoke" : "full", hex(fold.value()).c_str(), digests.c_str(),
              raw_json.c_str(), wl->quality_json().c_str());
  std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
              json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", result.c_str());
  return correct ? 0 : 1;
}
