// cynthiactl — command-line front end for the Cynthia library.
//
//   cynthiactl catalog                         list instance types
//   cynthiactl models                          list model zoo entries
//   cynthiactl profile <workload>              30-iteration baseline profile
//   cynthiactl plan <workload> --minutes M --loss L [--gpu] [--type T]
//              [--spot] [--bid MULT]           run Algorithm 1; --spot also
//                                              prices mixed on-demand+spot
//                                              fleets under the fitted
//                                              revocation process
//   cynthiactl simulate <workload> --workers N [--ps K] [--type T]
//              [--iterations S] [--stragglers]
//              [--faults SPEC] [--fault-seed N] [--fault-horizon S]
//              [--mitigate[=POLICY]] [--minutes M] [--loss L]
//              [--trace-out F] [--metrics-out F] [--journal-out F]
//                                              run the training simulator
//   cynthiactl report <workload> --workers N --iterations S [--ps K]
//              [--type T] [--faults SPEC] [--fault-seed N] [--fault-horizon S]
//              [--policy P] [--minutes M] [--loss L] [--bound FRAC]
//              [--journal-out F.jsonl] [--report-out F.html] [--json-out F.json]
//                                              sentinel run + run journal +
//                                              cost/SLO attribution report
//   cynthiactl serve [--jobs N] [--arrival SPEC] [--region SPEC] [--seed N]
//              [--revocations MINUTES] [--spot] [--bid MULT]
//              [--patience MINUTES] [--slo RATE]
//              [--journal-out F.jsonl] [--report-out F.html] [--json-out F.json]
//                                              multi-tenant fleet simulation
//
// `serve` drives the PR 9 provisioning service: a seeded synthetic traffic
// stream (--arrival takes the docs/SERVICE.md grammar, e.g.
// "poisson:jobs=1000,horizon=24h,diurnal=0.6"; --jobs/--seed/--patience
// override the spec) is admitted against a finite region (--region takes
// "m4.xlarge=256,c3.xlarge=128", "*=512" or "inf"), queued jobs are
// re-planned as capacity frees, and the fleet rollup (SLO-attainment,
// utilization, queue-wait distribution, $/goodput) is printed and journaled.
// --revocations M enables spot-style capacity loss with an Exp(M minutes)
// per-attempt revocation process; adding --spot re-admits revoked jobs on
// mixed on-demand+spot fleets (workers at the fitted held-price ratio, PS
// on-demand; --bid sets the multiplier over the mean spot price). The
// attribution ledger derived from the journal must reproduce the fleet's
// total cost bit-for-bit or serve exits 1; --slo R exits 3 when the
// SLO-attainment rate lands below R.
//
// `report` runs the SLO sentinel with the run journal always on, derives the
// cost-attribution ledger (every billing settlement classified by phase x
// cause x node; the ledger sums bit-for-bit to the billing meter) and the
// prediction-audit ledger (per-segment predicted vs measured iteration time,
// flagged beyond --bound, default 10%), and renders a self-contained HTML
// report plus a machine-readable JSON twin (tools/check_report.py validates
// it in CI). Like simulate --mitigate, a missed verdict exits 3.
//
// --mitigate runs the job under the SLO sentinel (the job executor's
// Sentinel policy; `report` runs the same job): stragglers and
// degradations are detected online and mitigated under POLICY (none |
// replace | add-ps | ssp | replan | auto; default auto — see
// docs/FAULTS.md). The replan and auto policies re-plan through Algorithm 1
// over the provisionable catalog, profiled on m4.xlarge. Requires
// --iterations; --minutes/--loss set the Tg / loss goals the verdict is
// judged against, and a missed verdict makes the process exit 3
// (scriptable SLO checks).
//
// The global --check flag turns on the runtime invariant checker
// (util/check.hpp) for the whole invocation: fluid-solver conservation
// laws, event-clock monotonicity, BSP tiling, SSP staleness and billing
// monotonicity are asserted as the simulation runs, at a small CPU cost and
// with bit-identical results. The global --seed flag pins the simulation
// seed (default 1): same seed, same flags -> bit-identical run, including
// any injected faults.
//
// --faults takes either the explicit grammar from docs/FAULTS.md
// ("crash:wk1@40+90;slow:wk0@20x2;nic:ps0@60=40") or "rate:<r>" to generate
// a Poisson schedule with r faults/hour split evenly across the four fault
// classes over --fault-horizon seconds (default 3600), drawn under
// --fault-seed (default: the global seed). Explicit crashes without a
// +recovery suffix are given a 120 s replacement window.
//
// --trace-out / --metrics-out enable the telemetry layer: the run is
// provisioned through the orchestrator (so the trace carries node-lifecycle
// spans ahead of the training spans), the trace is written as Chrome
// trace_event JSON (open in chrome://tracing or ui.perfetto.dev), metrics as
// CSV, and a Fig. 3-style breakdown table is printed.
//
// Workloads: mnist | cifar10 | resnet32 | vgg19, or any zoo model name
// (resnet50, alexnet, lstm) which is derived via workload_from_network.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"
#include "cloud/spot.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "faults/fault_spec.hpp"
#include "models/zoo.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "orchestrator/executor.hpp"
#include "profiler/profiler.hpp"
#include "region/region.hpp"
#include "service/service.hpp"
#include "service/traffic.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

using namespace cynthia;

namespace {

/// Rejects the value of `--flag` with the CLI's one error shape.
[[noreturn]] void bad_flag(const std::string& flag, const std::string& token,
                           const std::string& reason) {
  throw std::invalid_argument("bad --" + flag + " '" + token + "': " + reason);
}

/// All of `token` as a finite real number; `what` names the value.
double finite_real(const std::string& flag, const std::string& token, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size()) {
    bad_flag(flag, token, "expected a number");
  }
  if (!std::isfinite(value)) bad_flag(flag, token, what + " must be finite");
  return value;
}

/// Minimal --flag value parser: positional args + string options.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  std::map<std::string, bool> flags;

  static Args parse(int argc, char** argv) {
    // Boolean flags must be declared here, or a following positional (e.g.
    // the command in `--check simulate ...`) is swallowed as their value.
    static const std::set<std::string> kBoolFlags = {"check", "gpu", "stragglers",
                                                     "mitigate", "spot"};
    Args a;
    for (int i = 1; i < argc; ++i) {
      std::string tok = argv[i];
      if (tok.rfind("--", 0) == 0) {
        const std::string name = tok.substr(2);
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
          // --flag=value form (the only way to give a bool-ish flag a value).
          a.options[name.substr(0, eq)] = name.substr(eq + 1);
        } else if (kBoolFlags.count(name)) {
          a.flags[name] = true;
        } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          a.options[name] = argv[++i];
        } else {
          a.flags[name] = true;
        }
      } else {
        a.positional.push_back(tok);
      }
    }
    return a;
  }

  /// A real-valued flag (see finite_real); nullopt when absent.
  [[nodiscard]] std::optional<double> real(const std::string& name, const std::string& what) const {
    auto it = options.find(name);
    if (it == options.end()) return std::nullopt;
    return finite_real(name, it->second, what);
  }
  /// An integer flag: all of its token must be a non-negative integer that
  /// T holds (no sign, fraction, exponent or trailing text); nullopt when
  /// absent.
  template <class T>
  [[nodiscard]] std::optional<T> integer(const std::string& name) const {
    auto it = options.find(name);
    if (it == options.end()) return std::nullopt;
    const std::string& token = it->second;
    std::uint64_t value = 0;
    const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc::invalid_argument || end != token.data() + token.size()) {
      bad_flag(name, token, "expected a non-negative integer");
    }
    constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    if (ec == std::errc::result_out_of_range || value > kMax) {
      bad_flag(name, token, "at most " + std::to_string(kMax));
    }
    return static_cast<T>(value);
  }
  [[nodiscard]] std::string text(const std::string& name, std::string fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] bool flag(const std::string& name) const {
    return flags.count(name) > 0;
  }
};

ddnn::WorkloadSpec resolve_workload(const std::string& name) {
  for (const auto& w : ddnn::paper_workloads()) {
    if (w.name == name) return w;
  }
  // Fall back to the model zoo via the structural bridge.
  try {
    return ddnn::workload_from_network(models::build_by_name(name));
  } catch (const std::exception&) {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (try one of: mnist, cifar10, resnet32, vgg19, resnet50, alexnet, lstm)");
  }
}

const cloud::InstanceType& resolve_type(const std::string& name) {
  const auto& catalog = cloud::Catalog::aws();
  if (!catalog.contains(name)) {
    throw std::invalid_argument("unknown instance type '" + name +
                                "' (run 'cynthiactl catalog' for the list)");
  }
  return catalog.at(name);
}

int cmd_catalog() {
  util::Table t("Instance catalog");
  t.header({"type", "CPU", "GFLOPS", "accel", "NIC MB/s", "$/h", "class"});
  for (const auto& i : cloud::Catalog::aws().types()) {
    t.row({i.name, i.cpu_model, util::Table::num(i.compute_gflops().value(), 1),
           i.has_accelerator() ? i.accelerator : "-", util::Table::num(i.nic_mbps.value(), 0),
           util::Table::num(i.price.value(), 3),
           i.previous_generation ? "legacy" : (i.has_accelerator() ? "gpu" : "current")});
  }
  t.print(std::cout);
  return 0;
}

int cmd_models() {
  util::Table t("Model zoo");
  t.header({"name", "params (M)", "fwd GFLOP/sample", "payload (MB)"});
  for (const char* name :
       {"mnist", "cifar10", "resnet32", "vgg19", "resnet50", "alexnet", "lstm"}) {
    const auto net = models::build_by_name(name);
    t.row({name, util::Table::num(net.total_params() / 1e6, 2),
           util::Table::num(net.forward_flops_per_sample() / 1e9, 3),
           util::Table::num(net.param_megabytes().value(), 2)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_profile(const Args& args) {
  if (args.positional.size() < 2) {
    std::puts("usage: cynthiactl profile <workload>");
    return 2;
  }
  const auto w = resolve_workload(args.positional[1]);
  const auto& baseline = resolve_type(args.text("type", "m4.xlarge"));
  const auto p = profiler::profile_workload(w, baseline);
  util::Table t("Profile of " + w.name + " on " + baseline.name);
  t.header({"quantity", "value"});
  t.row({"w_iter (GFLOPs)", util::Table::num(p.witer.value(), 3)});
  t.row({"g_param (MB)", util::Table::num(p.gparam.value(), 3)});
  t.row({"c_prof (GFLOPS)", util::Table::num(p.cprof.value(), 4)});
  t.row({"b_prof (MB/s)", util::Table::num(p.bprof.value(), 2)});
  t.row({"profiling time (s)", util::Table::num(p.profiling_time.value(), 1)});
  t.print(std::cout);
  return 0;
}

/// Validates the --bid multiplier against the market. A bid is expressed as
/// a multiple of the long-run mean spot price; anything below the mean
/// discount floor (mean spot / on-demand) would sit under the market
/// forever, so reject it with a hint instead of spinning a doomed search.
double validated_bid_multiplier(const Args& args, const cloud::SpotMarket& market) {
  const double bid = args.real("bid", "bid multiplier").value_or(1.6);
  const double floor = market.options().mean_discount;
  if (bid <= 0.0 || bid < floor) {
    char hint[160];
    std::snprintf(hint, sizeof hint,
                  "bad --bid %g: bid is a finite multiple of the mean spot price and must be "
                  ">= the mean spot discount %.2f (try --bid 1.6)",
                  bid, floor);
    throw std::invalid_argument(hint);
  }
  return bid;
}

int cmd_plan(const Args& args) {
  const auto minutes = args.real("minutes", "time goal");
  const auto loss = args.real("loss", "target loss");
  if (args.positional.size() < 2 || !minutes || !loss) {
    std::puts(
        "usage: cynthiactl plan <workload> --minutes M --loss L [--gpu] [--type T]"
        " [--spot] [--bid MULT]");
    return 2;
  }
  const auto w = resolve_workload(args.positional[1]);
  const auto& catalog = cloud::Catalog::aws();
  const auto pred = core::Predictor::build(w, resolve_type(args.text("type", "m4.xlarge")));
  auto types = args.flag("gpu") ? catalog.provisionable_with_accelerators()
                                : catalog.provisionable();
  core::Provisioner prov(pred.model(), pred.loss(), std::move(types));
  telemetry::Telemetry tel;
  prov.set_metrics(&tel.metrics);
  const core::ProvisionGoal goal{util::minutes(*minutes), *loss};

  if (args.flag("spot")) {
    const auto seed = args.integer<std::uint64_t>("seed").value_or(1);
    const cloud::SpotMarket market(catalog, seed);
    core::SpotPlanOptions so;
    so.bid_multiplier = validated_bid_multiplier(args, market);
    const core::SpotProvisionPlan sp = prov.plan_spot(w.sync, goal, market, so);
    std::printf("plan: %s\n", sp.describe().c_str());
    if (!sp.feasible) return 1;

    // Planned (durable Algorithm 1 answer) vs the durability-aware winner.
    util::Table t("Planned vs durable fleets for " + w.name + " (seed " +
                  std::to_string(seed) + ")");
    t.header({"fleet", "type", "wk", "ps", "ckpt (s)", "E[time] (s)", "E[cost] ($)",
              "E[rev]"});
    t.row({"durable", sp.durable.type.name, std::to_string(sp.durable.n_workers),
           std::to_string(sp.durable.n_ps), "-",
           util::Table::num(sp.durable.predicted_time.value(), 0),
           util::Table::num(sp.durable.predicted_cost.value(), 2), "0"});
    t.row({core::to_string(sp.durability), sp.plan.type.name,
           std::to_string(sp.plan.n_workers), std::to_string(sp.plan.n_ps),
           sp.checkpoint_interval.value() > 0.0
               ? util::Table::num(sp.checkpoint_interval.value(), 0)
               : "-",
           util::Table::num(sp.expected_time.value(), 0),
           util::Table::num(sp.expected_cost.value(), 2),
           util::Table::num(sp.expected_revocations, 2)});
    t.print(std::cout);
    if (sp.durability != core::FleetDurability::kDurable) {
      const double saved = sp.durable.predicted_cost.value() - sp.expected_cost.value();
      std::printf("spot: bid $%.4f/h (%.2fx mean), hazard %.3g/h, expected savings $%.2f"
                  " (%.1f%%) vs durable\n",
                  sp.bid.value(), so.bid_multiplier,
                  sp.interruption.hazard * util::kSecondsPerHour, saved,
                  100.0 * saved / sp.durable.predicted_cost.value());
    } else {
      std::puts("spot: durable fleet remains cheapest under the fitted revocation process");
    }
    return 0;
  }

  const auto plan = prov.plan(w.sync, goal);
  std::printf("plan: %s\n", plan.describe().c_str());
  const auto stats = prov.stats();
  std::printf("planner: %.3f ms, %llu candidate(s) evaluated, %llu pruned, cache %.0f%% hit\n",
              tel.metrics.histogram(telemetry::metric::kPlannerPlanSeconds).sum() * 1e3,
              static_cast<unsigned long long>(stats.candidates_evaluated),
              static_cast<unsigned long long>(stats.candidates_pruned),
              100.0 * stats.cache_hit_rate());
  if (plan.feasible) {
    std::printf("bounds: workers in [%d, %d], ratio r=%.1f, %s\n", plan.bounds.n_lower,
                plan.bounds.n_upper, plan.bounds.r,
                plan.diagnostics.bw_bottleneck || plan.diagnostics.cpu_bottleneck
                    ? "PS bottleneck anticipated"
                    : "no PS bottleneck at the chosen size");
  }
  return plan.feasible ? 0 : 1;
}

/// Provisions the cluster through the orchestrator so the trace records the
/// node-lifecycle and provisioning spans, then offsets the tracer clock so
/// training telemetry lands after provisioning on one sequential timeline.
/// Returns the provisioning wall-clock seconds; `billing` keeps accruing
/// while the (simulated) training runs.
double provision_for_telemetry(telemetry::Telemetry& tel, cloud::BillingMeter& billing,
                               const cloud::InstanceType& type, int n_workers, int n_ps,
                               bool stragglers) {
  sim::Simulator psim;
  orch::ClusterManager manager(psim, billing);
  manager.set_telemetry(&tel);
  if (stragglers) {
    // Two launch waves (fast + m1 stragglers); no single-type plan exists,
    // so the provision span is recorded here instead of by deploy().
    const auto& slow = cloud::Catalog::aws().at("m1.xlarge");
    const int n_slow = n_workers / 2;
    const int n_fast = n_workers - n_slow + n_ps;  // PS pods live on the fast type
    const int fast_instances = (n_fast + type.physical_cores - 1) / type.physical_cores;
    const int slow_instances =
        n_slow > 0 ? (n_slow + slow.physical_cores - 1) / slow.physical_cores : 0;
    manager.launch(type, fast_instances);
    if (slow_instances > 0) manager.launch(slow, slow_instances);
    if (!manager.wait_all_ready()) throw std::runtime_error("provisioning failed");
    tel.tracer.span("orchestrator", "provision", "orch", 0.0, psim.now());
    tel.metrics.counter(telemetry::metric::kProvisionSeconds).inc(psim.now());
  } else {
    core::ProvisionPlan plan;
    plan.feasible = true;
    plan.type = type;
    plan.n_workers = n_workers;
    plan.n_ps = n_ps;
    manager.deploy(plan);
  }
  tel.set_time_offset(psim.now());
  return psim.now();
}

/// Builds the --faults schedule: the explicit grammar, or "rate:<r>" Poisson
/// generation split evenly across the four fault classes, with the CLI's
/// 120 s default replacement window for explicit crashes that omit +recovery.
faults::FaultSchedule build_fault_schedule(const Args& args, int n_workers, int n_ps,
                                           std::uint64_t seed, double horizon_seconds) {
  const std::string text = args.text("faults", "");
  if (text.empty()) return {};
  const std::uint64_t fault_seed = args.integer<std::uint64_t>("fault-seed").value_or(seed);
  if (text.rfind("rate:", 0) == 0) {
    const double per_hour = finite_real("faults", text.substr(5), "fault rate");
    faults::FaultRates rates;
    rates.crash_per_hour = per_hour / 4.0;
    rates.slowdown_per_hour = per_hour / 4.0;
    rates.nic_per_hour = per_hour / 4.0;
    rates.blip_per_hour = per_hour / 4.0;
    return faults::FaultSchedule::generate(rates, horizon_seconds, n_workers, n_ps,
                                           fault_seed);
  }
  const faults::FaultSchedule parsed = faults::FaultSchedule::parse(text);
  std::vector<faults::FaultSpec> events = parsed.events();
  for (auto& event : events) {
    if (event.kind == faults::FaultKind::kCrash && event.recovery_seconds < 0.0) {
      event.recovery_seconds = 120.0;  // a replacement node eventually shows up
    }
  }
  return faults::FaultSchedule(std::move(events));
}

/// The sentinel job `simulate --mitigate` and `report` both run: `n` x
/// `type` workers + `ps` PS nodes for `training.iterations` updates under
/// `schedule`, judged against --minutes/--loss. The replan and auto policies
/// re-plan through Algorithm 1 over the provisionable catalog, profiled on
/// m4.xlarge. The two commands differ only in what they print and write.
struct SentinelJob {
  orch::JobRun run;
  bool time_goal_given = false;
  bool loss_goal_given = false;

  /// A given goal missed: the commands exit 3.
  [[nodiscard]] bool missed() const {
    return (time_goal_given && !run.time_goal_met) || (loss_goal_given && !run.loss_goal_met);
  }
};

SentinelJob run_sentinel_job(const Args& args, const ddnn::WorkloadSpec& w,
                             const cloud::InstanceType& type, int n, int ps,
                             const faults::FaultSchedule& schedule,
                             orch::MitigationPolicy policy, const ddnn::TrainOptions& training) {
  core::ProvisionPlan plan;
  plan.feasible = true;
  plan.type = type;
  plan.n_workers = n;
  plan.n_ps = ps;
  plan.iterations = training.iterations;
  plan.total_iterations = training.iterations;
  const auto minutes = args.real("minutes", "time goal");
  const auto loss = args.real("loss", "target loss");
  core::ProvisionGoal goal;
  goal.time_goal = minutes ? util::minutes(*minutes) : util::Seconds{1e12};
  goal.target_loss = loss.value_or(0.0);

  std::optional<core::Provisioner> planner;
  if (policy == orch::MitigationPolicy::kReplan || policy == orch::MitigationPolicy::kAuto) {
    const auto& catalog = cloud::Catalog::aws();
    const core::Predictor predictor = core::Predictor::build(w, catalog.at("m4.xlarge"));
    planner.emplace(predictor.model(), predictor.loss(), catalog.provisionable());
  }
  const orch::JobSpec spec{w, plan, goal, schedule, orch::Sentinel{policy}, training.seed,
                           training};
  return {orch::execute_job(spec, planner ? &*planner : nullptr), minutes.has_value(),
          loss.has_value()};
}

int cmd_simulate(const Args& args) {
  const auto workers = args.integer<int>("workers");
  if (args.positional.size() < 2 || !workers) {
    std::puts(
        "usage: cynthiactl simulate <workload> --workers N [--ps K] [--type T]"
        " [--iterations S] [--stragglers] [--faults SPEC] [--fault-seed N]"
        " [--fault-horizon S] [--mitigate[=POLICY]] [--minutes M] [--loss L]"
        " [--trace-out F] [--metrics-out F]");
    return 2;
  }
  const auto w = resolve_workload(args.positional[1]);
  const auto& catalog = cloud::Catalog::aws();
  const auto& type = resolve_type(args.text("type", "m4.xlarge"));
  const int n = *workers;
  const int ps = args.integer<int>("ps").value_or(1);
  const auto cluster =
      args.flag("stragglers")
          ? ddnn::ClusterSpec::with_stragglers(type, catalog.at("m1.xlarge"), n, ps)
          : ddnn::ClusterSpec::homogeneous(type, n, ps);
  ddnn::TrainOptions o;
  o.iterations = args.integer<long>("iterations").value_or(0);
  const std::uint64_t seed = args.integer<std::uint64_t>("seed").value_or(1);
  o.seed = seed;
  const double horizon_seconds = args.real("fault-horizon", "fault horizon").value_or(3600.0);
  const faults::FaultSchedule schedule =
      build_fault_schedule(args, n, ps, seed, horizon_seconds);
  if (!schedule.empty()) {
    o.faults = &schedule;
    std::printf("[faults] %zu event(s): %s\n", schedule.size(), schedule.to_string().c_str());
  }

  const std::string trace_out = args.text("trace-out", "");
  const std::string metrics_out = args.text("metrics-out", "");
  const std::string journal_out = args.text("journal-out", "");
  const bool telemetry_on =
      !trace_out.empty() || !metrics_out.empty() || !journal_out.empty();
  telemetry::Telemetry tel;

  const bool mitigate = args.flag("mitigate") || args.options.count("mitigate") > 0;
  if (mitigate) {
    if (args.flag("stragglers")) {
      std::puts("--mitigate provisions its own homogeneous cluster; drop --stragglers");
      return 2;
    }
    if (o.iterations <= 0) {
      std::puts("--mitigate needs an explicit --iterations budget");
      return 2;
    }
    const orch::MitigationPolicy policy =
        orch::parse_mitigation_policy(args.text("mitigate", "auto"));
    if (telemetry_on) {
      o.telemetry = &tel;
      o.trace_bucket_seconds = 1.0;
    }
    const SentinelJob job = run_sentinel_job(args, w, type, n, ps, schedule, policy, o);
    const orch::JobRun& report = job.run;
    const auto& r = report.training;

    util::Table t("Sentinel: " + w.name + " on " + std::to_string(n) + "x " + type.name +
                  " + " + std::to_string(ps) + " PS, policy " + orch::to_string(policy));
    t.header({"metric", "value"});
    t.row({"iterations", std::to_string(r.iterations)});
    t.row({"total time (s)", util::Table::num(r.total_time, 1)});
    t.row({"final loss", util::Table::num(r.final_loss, 3)});
    t.row({"faults injected", std::to_string(r.faults.injected)});
    t.row({"crashes", std::to_string(r.faults.crashes)});
    t.row({"slowdowns", std::to_string(r.faults.slowdowns)});
    t.row({"NIC degradations", std::to_string(r.faults.nic_degradations)});
    t.row({"blips", std::to_string(r.faults.blips)});
    t.row({"degraded node-time (s)", util::Table::num(r.faults.degraded_node_seconds, 1)});
    t.row({"detections", std::to_string(report.detections.size())});
    t.row({"mitigations", std::to_string(report.mitigations.size())});
    t.row({"segments", std::to_string(report.segments)});
    t.row({"workers replaced", std::to_string(r.monitor.exclusions.size())});
    t.row({"PS shards added", std::to_string(report.added_ps)});
    t.row({"SSP downgrade", r.monitor.downgraded ? "yes" : "no"});
    t.row({"replanned", report.replanned ? "yes" : "no"});
    t.row({"cost ($)", util::Table::num(report.actual_cost.value(), 3)});
    if (job.time_goal_given) {
      t.row({"Tg verdict", report.time_goal_met ? "met" : "MISSED"});
    }
    if (job.loss_goal_given) {
      t.row({"loss verdict", report.loss_goal_met ? "met" : "MISSED"});
    }
    t.print(std::cout);
    for (const auto& d : report.detections) {
      std::printf("[detect]   t=%8.1f  %s%s  severity %.2f\n", d.at.value(), d.kind.c_str(),
                  d.worker >= 0 ? (" wk" + std::to_string(d.worker)).c_str() : "",
                  d.severity);
    }
    for (const auto& m : report.mitigations) {
      std::printf("[mitigate] t=%8.1f  %s  (%s)\n", m.at.value(), m.action.c_str(),
                  m.detail.c_str());
    }
    if (telemetry_on) {
      telemetry::TelemetrySummary::from(tel.metrics).table().print(std::cout);
      if (!trace_out.empty()) tel.tracer.write_chrome_json_file(trace_out);
      if (!metrics_out.empty()) tel.metrics.write_csv_file(metrics_out);
      if (!journal_out.empty()) {
        tel.journal.write_jsonl_file(journal_out);
        std::printf("[journal] %s (%zu records)\n", journal_out.c_str(), tel.journal.size());
      }
    }
    return job.missed() ? 3 : 0;
  }

  cloud::BillingMeter billing;
  double provision_seconds = 0.0;
  if (telemetry_on) {
    o.telemetry = &tel;
    o.trace_bucket_seconds = 1.0;  // feed the PS ingress RateTrace snapshots
    provision_seconds =
        provision_for_telemetry(tel, billing, type, n, ps, args.flag("stragglers"));
  }

  const auto r = ddnn::run_training(cluster, w, o);

  if (telemetry_on) {
    // Instances billed from launch through end of training; one journal
    // settlement mirrors the meter so the cost ledger sums to the gauge.
    const double bill_until = provision_seconds + r.total_time;
    tel.metrics.gauge(telemetry::metric::kBillingDollars)
        .set(billing.total(util::Seconds{bill_until}).value());
    cloud::journal_meter_settlement(tel.journal, billing, util::Seconds{bill_until},
                                    telemetry::CostPhase::kTrain,
                                    telemetry::CostCause::kPlan,
                                    util::Seconds{provision_seconds});
  }
  util::Table t("Simulation: " + w.name + " on " + std::to_string(n) + "x " + type.name +
                " + " + std::to_string(ps) + " PS");
  t.header({"metric", "value"});
  t.row({"iterations", std::to_string(r.iterations)});
  t.row({"total time (s)", util::Table::num(r.total_time, 1)});
  t.row({"computation (s)", util::Table::num(r.computation_time, 1)});
  t.row({"communication (s)", util::Table::num(r.communication_time, 1)});
  t.row({"worker CPU util", util::Table::pct(100 * r.avg_worker_cpu_util)});
  t.row({"PS CPU util", util::Table::pct(100 * r.avg_ps_cpu_util)});
  t.row({"PS ingress (MB/s)", util::Table::num(r.ps_ingress_avg_mbps, 1)});
  t.row({"final loss", util::Table::num(r.final_loss, 3)});
  if (!schedule.empty()) {
    t.row({"faults injected", std::to_string(r.faults.injected)});
    t.row({"crashes", std::to_string(r.faults.crashes)});
    t.row({"slowdowns", std::to_string(r.faults.slowdowns)});
    t.row({"NIC degradations", std::to_string(r.faults.nic_degradations)});
    t.row({"blips", std::to_string(r.faults.blips)});
    t.row({"degraded node-time (s)", util::Table::num(r.faults.degraded_node_seconds, 1)});
    t.row({"lost iterations", std::to_string(r.faults.lost_iterations)});
    t.row({"outage (s)", util::Table::num(r.faults.outage_seconds, 1)});
    t.row({"stopped early", r.stopped_early ? "yes" : "no"});
  }
  t.row({"cost ($, Eq. 8)",
         util::Table::num(
             core::plan_cost(type, n, ps, util::Seconds{r.total_time}).value(), 3)});
  t.print(std::cout);
  if (telemetry_on) {
    telemetry::TelemetrySummary::from(tel.metrics).table().print(std::cout);
    if (!trace_out.empty()) {
      tel.tracer.write_chrome_json_file(trace_out);
      std::printf("[trace] %s (%zu events; open in chrome://tracing)\n", trace_out.c_str(),
                  tel.tracer.events().size());
    }
    if (!metrics_out.empty()) {
      tel.metrics.write_csv_file(metrics_out);
      std::printf("[metrics] %s\n", metrics_out.c_str());
    }
    if (!journal_out.empty()) {
      tel.journal.write_jsonl_file(journal_out);
      std::printf("[journal] %s (%zu records)\n", journal_out.c_str(), tel.journal.size());
    }
  }
  return 0;
}

int cmd_report(const Args& args) {
  const auto workers = args.integer<int>("workers");
  const auto iterations = args.integer<long>("iterations");
  if (args.positional.size() < 2 || !workers || iterations.value_or(0) <= 0) {
    std::puts(
        "usage: cynthiactl report <workload> --workers N --iterations S [--ps K]"
        " [--type T] [--faults SPEC] [--fault-seed N] [--fault-horizon S]"
        " [--policy P] [--minutes M] [--loss L] [--bound FRAC]"
        " [--journal-out F.jsonl] [--report-out F.html] [--json-out F.json]");
    return 2;
  }
  const auto w = resolve_workload(args.positional[1]);
  const auto& type = resolve_type(args.text("type", "m4.xlarge"));
  const int n = *workers;
  const int ps = args.integer<int>("ps").value_or(1);
  const std::uint64_t seed = args.integer<std::uint64_t>("seed").value_or(1);
  const double horizon_seconds = args.real("fault-horizon", "fault horizon").value_or(3600.0);
  const faults::FaultSchedule schedule =
      build_fault_schedule(args, n, ps, seed, horizon_seconds);
  if (!schedule.empty()) {
    std::printf("[faults] %zu event(s): %s\n", schedule.size(), schedule.to_string().c_str());
  }

  // The journal is the whole point of this command: telemetry is always on.
  telemetry::Telemetry tel;
  ddnn::TrainOptions o;
  o.iterations = *iterations;
  o.seed = seed;
  o.telemetry = &tel;
  o.trace_bucket_seconds = 1.0;

  const orch::MitigationPolicy policy = orch::parse_mitigation_policy(args.text("policy", "auto"));
  const SentinelJob job = run_sentinel_job(args, w, type, n, ps, schedule, policy, o);
  const orch::JobRun& report = job.run;

  const double bound = args.real("bound", "audit bound").value_or(0.10);
  const std::string title = w.name + " on " + std::to_string(n) + "x " + type.name + " + " +
                            std::to_string(ps) + " PS (policy " + orch::to_string(policy) +
                            ", seed " + std::to_string(seed) + ")";
  const telemetry::RunReport run = telemetry::RunReport::build(tel.journal, title, bound);

  util::Table t("Report: " + title);
  t.header({"metric", "value"});
  t.row({"iterations", std::to_string(report.training.iterations)});
  t.row({"total time (s)", util::Table::num(report.training.total_time, 1)});
  t.row({"final loss", util::Table::num(report.achieved_loss, 3)});
  t.row({"segments", std::to_string(report.segments)});
  t.row({"detections", std::to_string(report.detections.size())});
  t.row({"mitigations", std::to_string(report.mitigations.size())});
  t.row({"cost ($)", util::Table::num(report.actual_cost.value(), 3)});
  t.row({"attributed ($)", util::Table::num(run.total_cost_dollars(), 3)});
  t.row({"  provision ($)",
         util::Table::num(run.cost.phase_dollars(telemetry::CostPhase::kProvision), 3)});
  t.row({"  train ($)",
         util::Table::num(run.cost.phase_dollars(telemetry::CostPhase::kTrain), 3)});
  t.row({"  mitigate ($)",
         util::Table::num(run.cost.phase_dollars(telemetry::CostPhase::kMitigate), 3)});
  t.row({"  recover ($)",
         util::Table::num(run.cost.phase_dollars(telemetry::CostPhase::kRecover), 3)});
  std::size_t flagged = 0;
  for (const auto& row : run.audit.rows) {
    if (row.flagged) ++flagged;
  }
  t.row({"audit segments", std::to_string(run.audit.rows.size())});
  t.row({"audit flagged (>" + util::Table::pct(100.0 * bound) + ")",
         std::to_string(flagged)});
  if (job.time_goal_given) t.row({"Tg verdict", report.time_goal_met ? "met" : "MISSED"});
  if (job.loss_goal_given) t.row({"loss verdict", report.loss_goal_met ? "met" : "MISSED"});
  t.row({"journal records", std::to_string(tel.journal.size())});
  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016llx",
                static_cast<unsigned long long>(tel.journal.digest()));
  t.row({"journal digest", digest});
  t.print(std::cout);

  // The exactness invariant the ledger is built around: the grouped fold
  // over the attribution entries reproduces the meter chain bit-for-bit.
  if (run.total_cost_dollars() != report.actual_cost.value()) {
    std::fprintf(stderr, "error: attribution $%.17g != meter $%.17g\n",
                 run.total_cost_dollars(), report.actual_cost.value());
    return 1;
  }

  const std::string journal_out = args.text("journal-out", "");
  const std::string report_out = args.text("report-out", "");
  const std::string json_out = args.text("json-out", "");
  if (!journal_out.empty()) {
    tel.journal.write_jsonl_file(journal_out);
    std::printf("[journal] %s (%zu records)\n", journal_out.c_str(), tel.journal.size());
  }
  if (!report_out.empty()) {
    run.write_html_file(report_out);
    std::printf("[report] %s\n", report_out.c_str());
  }
  if (!json_out.empty()) {
    run.write_json_file(json_out);
    std::printf("[json] %s\n", json_out.c_str());
  }

  return job.missed() ? 3 : 0;
}

int cmd_serve(const Args& args) {
  // Traffic: the --arrival grammar, with --jobs/--seed/--patience overrides,
  // checked again once overridden.
  service::TrafficOptions traffic;
  const std::string arrival = args.text("arrival", "");
  if (!arrival.empty()) traffic = service::TrafficOptions::parse(arrival);
  if (const auto jobs = args.integer<long>("jobs")) traffic.jobs = *jobs;
  if (const auto seed = args.integer<std::uint64_t>("seed")) traffic.seed = *seed;
  if (const auto patience = args.real("patience", "patience")) {
    traffic.patience = util::minutes(*patience);
  }
  traffic.validate();
  const auto slo = args.real("slo", "SLO attainment floor");

  // Default sized so the stock 1k-job day runs at ~75% utilization with
  // real queueing (docs/SERVICE.md); scale up for larger --jobs.
  const std::string region_spec = args.text("region", "*=160");
  const region::Region fleet_region = region::Region::parse(region_spec);

  service::ServeOptions so;
  so.seed = traffic.seed;
  if (const auto revocations = args.real("revocations", "revocation interval")) {
    so.mean_revocation_interval = util::minutes(*revocations);
  }
  if (args.flag("spot")) {
    so.spot_fleets = true;
    // Same market the service will fit from: seeded by the serve seed.
    const cloud::SpotMarket market(cloud::Catalog::aws(), so.seed);
    so.spot_bid_multiplier = validated_bid_multiplier(args, market);
  }

  const auto requests = service::TrafficGenerator(traffic).generate();
  telemetry::Telemetry tel;
  service::ProvisioningService svc(fleet_region, cloud::Catalog::aws(), so);
  const service::FleetResult result = svc.run(requests, &tel);
  const service::FleetStats& s = result.stats;

  util::Table t("Fleet: " + std::to_string(s.submitted) + " job(s) on region " + region_spec +
                " (seed " + std::to_string(traffic.seed) + ")");
  t.header({"metric", "value"});
  t.row({"submitted", std::to_string(s.submitted)});
  t.row({"admitted", std::to_string(s.admitted)});
  t.row({"completed", std::to_string(s.completed)});
  t.row({"rejected", std::to_string(s.rejected)});
  t.row({"timed out", std::to_string(s.timed_out)});
  t.row({"starved", std::to_string(s.starved)});
  t.row({"attempts", std::to_string(s.attempts)});
  t.row({"replans", std::to_string(s.replans)});
  t.row({"ladder searches", std::to_string(s.ladder_searches)});
  t.row({"revocations", std::to_string(s.revocations)});
  if (so.spot_fleets) t.row({"spot attempts", std::to_string(s.spot_attempts)});
  t.row({"SLO attained", std::to_string(s.slo_attained)});
  t.row({"SLO attain rate", util::Table::pct(100.0 * s.slo_attain_rate)});
  t.row({"region utilization", util::Table::pct(100.0 * s.utilization)});
  t.row({"queue wait p50 (s)", util::Table::num(s.queue_wait_p50.value(), 1)});
  t.row({"queue wait p99 (s)", util::Table::num(s.queue_wait_p99.value(), 1)});
  t.row({"queue wait mean (s)", util::Table::num(s.queue_wait_mean.value(), 1)});
  t.row({"queue wait max (s)", util::Table::num(s.queue_wait_max.value(), 1)});
  t.row({"total cost ($)", util::Table::num(s.total_cost.value(), 2)});
  t.row({"$/goodput", util::Table::num(s.dollars_per_goodput, 3)});
  t.row({"makespan (h)", util::Table::num(s.makespan.value() / 3600.0, 2)});
  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016llx",
                static_cast<unsigned long long>(result.digest));
  t.row({"fleet digest", digest});
  t.row({"journal records", std::to_string(tel.journal.size())});
  t.print(std::cout);

  // The same exactness invariant `report` enforces, at fleet scale: the
  // attribution ledger must reproduce the fleet's cost fold bit-for-bit.
  const telemetry::CostLedger ledger = telemetry::CostLedger::from(tel.journal);
  if (ledger.total().value() != s.total_cost.value()) {
    std::fprintf(stderr, "error: attribution $%.17g != fleet $%.17g\n",
                 ledger.total().value(), s.total_cost.value());
    return 1;
  }

  const std::string journal_out = args.text("journal-out", "");
  const std::string report_out = args.text("report-out", "");
  const std::string json_out = args.text("json-out", "");
  if (!journal_out.empty() || !report_out.empty() || !json_out.empty()) {
    const std::string title = "fleet: " + std::to_string(s.submitted) + " jobs on " +
                              region_spec + " (seed " + std::to_string(traffic.seed) + ")";
    const telemetry::RunReport run = telemetry::RunReport::build(tel.journal, title);
    if (!journal_out.empty()) {
      tel.journal.write_jsonl_file(journal_out);
      std::printf("[journal] %s (%zu records)\n", journal_out.c_str(), tel.journal.size());
    }
    if (!report_out.empty()) {
      run.write_html_file(report_out);
      std::printf("[report] %s\n", report_out.c_str());
    }
    if (!json_out.empty()) {
      run.write_json_file(json_out);
      std::printf("[json] %s\n", json_out.c_str());
    }
  }

  if (slo && s.slo_attain_rate < *slo) {
    std::fprintf(stderr, "SLO attainment %.3f below required %.3f\n", s.slo_attain_rate, *slo);
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  if (args.positional.empty()) {
    std::puts("cynthiactl — cost-efficient DDNN provisioning toolkit");
    std::puts("commands: catalog | models | profile | plan | simulate | report | serve");
    std::puts("global flags: --check (enable runtime invariant checking),");
    std::puts("              --seed N (simulation seed; also drives --faults rate:<r>)");
    return 2;
  }
  if (args.flag("check")) util::set_invariants_enabled(true);
  const std::string& cmd = args.positional[0];
  try {
    if (cmd == "catalog") return cmd_catalog();
    if (cmd == "models") return cmd_models();
    if (cmd == "profile") return cmd_profile(args);
    if (cmd == "plan") return cmd_plan(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "report") return cmd_report(args);
    if (cmd == "serve") return cmd_serve(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
