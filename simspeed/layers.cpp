/**
 * @file
 * Traced mode of the simulator-speed benchmark (see README.md).
 *
 * Runs one workload in-process with the same wiring `t4sim_cli` uses
 * for it, then runs it again once per sink configuration, and times
 * each layer through its public calls:
 *
 *  - set-up calls (`Compile`, `Simulate`) and post-run calls
 *    (`SloTracker::Finish`, `TimeSeriesCollector::Finish`,
 *    `CheckConservation`, `BuildForensics`, `BuildRunReport` +
 *    `RunReportToJson`) are timed directly;
 *  - the arrival source and the LLM cost model are wrapped in timing
 *    decorators handed to the simulator through their public seams;
 *  - a sink that only runs inside the simulated-time loop is measured
 *    as the extra host time of attaching it to a run without it (a
 *    sink that needs the registry is measured over a registry-only
 *    run).
 *
 * The CLI's helpers for this wiring are private to t4sim_cli.cpp and
 * scenario_run.cpp, so the few it needs are repeated below. Prints
 * one JSON object: the per-layer metrics plus the books of every run,
 * so the caller can check that each run matches the CLI run and no
 * measurement changed the simulation. `ladder` prints the BERT0
 * latency-ladder facts the benchmark checks the cluster CLI against;
 * `calibrate` is the host-speed probe.
 *
 *   simspeed_layers cluster  --seed N --app A --cells C --load L --duration S
 *   simspeed_layers scenario --seed N --scenario FILE
 *   simspeed_layers llm      --seed N --duration S --rate R --prompt-mean M
 *                            --prompt-sigma F --output-mean M
 *                            --output-sigma F --max-batch B
 *   simspeed_layers ladder   --app A --cells C --load L
 *   simspeed_layers calibrate
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/routing.h"
#include "src/llm/serve_llm.h"
#include "src/load/scenario.h"
#include "src/obs/alerts.h"
#include "src/obs/critical_path.h"
#include "src/obs/report.h"
#include "src/obs/sampling.h"
#include "src/obs/slo.h"
#include "src/obs/spans.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace_builder.h"
#include "src/tpu4sim.h"

namespace {

using namespace t4i;

double
NowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Adds the lifetime of the scope to *total. */
class ScopeClock {
  public:
    explicit ScopeClock(double* total) : total_(total), start_(NowS())
    {
    }
    ~ScopeClock() { *total_ += NowS() - start_; }
    ScopeClock(const ScopeClock&) = delete;
    ScopeClock& operator=(const ScopeClock&) = delete;

  private:
    double* total_;
    double start_;
};

/** --key value flags after the subcommand. */
class Flags {
  public:
    Flags(int argc, char** argv)
    {
        for (int i = 2; i + 1 < argc; i += 2) {
            std::string key = argv[i];
            if (key.rfind("--", 0) == 0) values_[key.substr(2)] = argv[i + 1];
        }
    }
    std::string
    Str(const std::string& key) const
    {
        auto it = values_.find(key);
        if (it == values_.end()) {
            std::fprintf(stderr, "simspeed_layers: missing --%s\n",
                         key.c_str());
            std::exit(2);
        }
        return it->second;
    }
    double Num(const std::string& key) const
    {
        return std::strtod(Str(key).c_str(), nullptr);
    }
    int64_t Int(const std::string& key) const
    {
        return std::strtoll(Str(key).c_str(), nullptr, 10);
    }

  private:
    std::map<std::string, std::string> values_;
};

template <typename T>
T
OrDie(StatusOr<T> value, const char* what)
{
    if (!value.ok()) {
        std::fprintf(stderr, "simspeed_layers: %s: %s\n", what,
                     value.status().ToString().c_str());
        std::exit(1);
    }
    return std::move(value).ConsumeValue();
}

void
OrDie(const Status& status, const char* what)
{
    if (!status.ok()) {
        std::fprintf(stderr, "simspeed_layers: %s: %s\n", what,
                     status.ToString().c_str());
        std::exit(1);
    }
}

/** The books of one run, compared against the CLI run's books. */
struct Books {
    std::string variant;
    double wall_s = 0.0;
    int64_t arrived = 0;
    int64_t completed = 0;
    int64_t dropped = 0;
    int64_t shed = 0;
    int64_t client_retries = 0;
};

Books
ClusterBooks(const std::string& variant, double wall_s,
             const ClusterResult& r)
{
    return {variant, wall_s, r.arrived, r.completed, r.dropped, r.shed,
            r.client_retries};
}

/** Per-layer metrics plus run books, printed as one JSON object. */
struct Output {
    std::map<std::string, double> metrics;
    std::vector<Books> runs;

    void
    Print() const
    {
        std::printf("{\"metrics\": {");
        const char* sep = "";
        for (const auto& [name, value] : metrics) {
            std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
            sep = ", ";
        }
        std::printf("}, \"runs\": [");
        sep = "";
        for (const Books& b : runs) {
            std::printf("%s{\"variant\": \"%s\", \"wall_s\": %.17g, "
                        "\"arrived\": %lld, \"completed\": %lld, "
                        "\"dropped\": %lld, \"shed\": %lld, "
                        "\"client_retries\": %lld}",
                        sep, b.variant.c_str(), b.wall_s,
                        static_cast<long long>(b.arrived),
                        static_cast<long long>(b.completed),
                        static_cast<long long>(b.dropped),
                        static_cast<long long>(b.shed),
                        static_cast<long long>(b.client_retries));
            sep = ", ";
        }
        std::printf("]}\n");
    }
};

constexpr int kReps = 3;

/**
 * Calls @p once kReps times and returns the fastest wall time, the
 * least-disturbed estimate on a shared host. Each call builds its own
 * sinks, so every repetition does the same work.
 */
template <typename F>
double
Fastest(F&& once)
{
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kReps; ++i) best = std::min(best, once());
    return best;
}

/** Histogram samples the registry retains after a run. */
int64_t
RetainedSamples(const obs::MetricsRegistry& registry)
{
    int64_t samples = 0;
    for (const auto& entry : registry.Snapshot()) {
        if (entry.histogram != nullptr) samples += entry.histogram->count();
    }
    return samples;
}

/** What the arrival-source decorator measured. */
struct SourceStats {
    int64_t arrivals = 0;
    int64_t feedback_calls = 0;
    double take_s = 0.0;  ///< Peek + Take
    double feedback_s = 0.0;
};

/** Arrival source decorator timing the pull and feedback paths. */
class TimedSource : public load::ArrivalSource {
  public:
    explicit TimedSource(std::unique_ptr<load::ArrivalSource> inner)
        : inner_(std::move(inner))
    {
    }
    bool
    Peek(load::LoadArrival* out) override
    {
        ScopeClock clock(&stats.take_s);
        return inner_->Peek(out);
    }
    load::LoadArrival
    Take() override
    {
        ScopeClock clock(&stats.take_s);
        ++stats.arrivals;
        return inner_->Take();
    }
    void
    OnRequestEnd(uint64_t id, double end_s, bool success) override
    {
        ScopeClock clock(&stats.feedback_s);
        ++stats.feedback_calls;
        inner_->OnRequestEnd(id, end_s, success);
    }
    bool Exhausted() const override { return inner_->Exhausted(); }

    SourceStats stats;

  private:
    std::unique_ptr<load::ArrivalSource> inner_;
};

/** LLM cost-model decorator timing every scheduler cost query. */
class TimedCostModel : public llm::LlmCostModel {
  public:
    TimedCostModel(const llm::LlmModelConfig& model,
                   const ChipConfig& chip)
        : inner_(model, chip)
    {
    }
    double
    PrefillSeconds(int64_t prompt_tokens) override
    {
        ScopeClock clock(&seconds);
        ++calls;
        return inner_.PrefillSeconds(prompt_tokens);
    }
    double
    DecodeStepSeconds(int64_t batch, int64_t avg_ctx,
                      double kv_cmem_fraction) override
    {
        ScopeClock clock(&seconds);
        ++calls;
        return inner_.DecodeStepSeconds(batch, avg_ctx,
                                        kv_cmem_fraction);
    }
    int64_t simulations() const { return inner_.simulations(); }

    int64_t calls = 0;
    double seconds = 0.0;

  private:
    llm::CompiledLlmCostModel inner_;
};

/**
 * The post-run calls a CLI command makes on its sinks, each timed:
 * finish (SLO tracker, series, and the conservation check where the
 * command runs it), forensics over @p forensic_spans when given, and
 * the report. Also records what the registry and series retained.
 */
void
TimePostRun(const obs::ReportMeta& meta, obs::MetricsRegistry& reg,
            obs::TimeSeriesCollector& collector, obs::SloTracker* slo,
            const obs::AlertEngine* alerts,
            const obs::SpanCollector* forensic_spans,
            bool check_conservation, Output* out)
{
    double finish_s = 0.0;
    {
        ScopeClock clock(&finish_s);
        if (slo != nullptr) slo->Finish(meta.duration_s);
        collector.Finish(meta.duration_s);
        if (check_conservation) {
            OrDie(collector.CheckConservation(), "conservation");
        }
    }
    obs::ForensicsResult forensics;
    if (forensic_spans != nullptr) {
        double forensics_s = 0.0;
        {
            ScopeClock clock(&forensics_s);
            obs::TailSamplerOptions sampler_options;
            sampler_options.seed = static_cast<uint64_t>(meta.seed);
            obs::TailSampler sampler(sampler_options);
            if (alerts != nullptr) {
                for (const obs::AlertStatus& status : alerts->statuses()) {
                    if (status.fire_count > 0) {
                        sampler.AddAlertWindow(status.fired_at_s,
                                               meta.duration_s);
                    }
                }
            }
            forensics =
                obs::BuildForensics(*forensic_spans, sampler, &reg, &reg);
        }
        out->metrics["obs.forensics.s"] = forensics_s;
        out->metrics["obs.sample.traces"] =
            static_cast<double>(forensics.critical_path.traces);
        out->metrics["obs.sample.kept"] =
            static_cast<double>(forensics.critical_path.kept);
    }
    double report_s = 0.0;
    size_t report_bytes = 0;
    {
        ScopeClock clock(&report_s);
        obs::RunReport report =
            obs::BuildRunReport(meta, &reg, &collector, slo, alerts);
        if (forensic_spans != nullptr) {
            obs::AttachForensics(forensics, &report);
        }
        report_bytes = obs::RunReportToJson(report).size();
    }
    out->metrics["obs.finish.s"] = finish_s;
    out->metrics["obs.report.s"] = report_s;
    out->metrics["obs.report.bytes"] = static_cast<double>(report_bytes);
    out->metrics["obs.registry.samples"] =
        static_cast<double>(RetainedSamples(reg));
    out->metrics["obs.timeseries.windows"] =
        static_cast<double>(collector.windows_closed());
}

// ---------------------------------------------------------------------
// cluster_bert0: serve-cluster's wiring.
// ---------------------------------------------------------------------

/** Engine-group shares of busy cycles, as serve-cluster derives them. */
std::vector<AttributionShare>
AttributionFromCounters(const PerfCounterFile& file)
{
    auto cyc = [&](Engine e) {
        return file.busy_cycles[static_cast<size_t>(e)];
    };
    const double mxu = cyc(Engine::kMxu);
    const double vpu = cyc(Engine::kVpu);
    const double mem = cyc(Engine::kHbm) + cyc(Engine::kCmem);
    const double link = cyc(Engine::kIci) + cyc(Engine::kPcie) +
                        cyc(Engine::kPcieIn);
    const double total = mxu + vpu + mem + link;
    if (total <= 0.0) return {};
    return {{"mxu", mxu / total},
            {"vpu", vpu / total},
            {"memory", mem / total},
            {"link", link / total}};
}

/** SLO pricing join, as serve-cluster builds it. */
obs::SloCostModel
BuildSloCostModel(const PowerReport& power, const TcoReport& tco,
                  const TcoParams& params,
                  const std::vector<AttributionShare>& attribution)
{
    obs::SloCostModel model;
    model.usd_per_joule =
        params.electricity_usd_per_kwh * params.pue_air / 3.6e6;
    const double service_s =
        params.service_years * 365.0 * 24.0 * 3600.0;
    model.usd_per_device_second =
        service_s > 0.0 ? tco.tco_usd / service_s : 0.0;
    if (power.total_energy_j <= 0.0) return model;
    const double watts = power.throttled_power_w > 0.0
                             ? power.throttled_power_w
                             : power.avg_power_w;
    const double static_frac =
        power.static_energy_j / power.total_energy_j;
    auto dynamic_fraction = [&](const std::string& component) {
        if (component == "mxu") {
            return power.mxu_energy_j / power.total_energy_j;
        }
        if (component == "vpu") {
            return power.vpu_energy_j / power.total_energy_j;
        }
        if (component == "memory") {
            return (power.sram_energy_j + power.dram_energy_j) /
                   power.total_energy_j;
        }
        if (component == "link") {
            return power.link_energy_j / power.total_energy_j;
        }
        return 0.0;
    };
    for (const AttributionShare& share : attribution) {
        if (share.fraction <= 0.0) continue;
        model.component_watts.emplace_back(
            share.component,
            watts * (dynamic_fraction(share.component) /
                         share.fraction +
                     static_frac));
    }
    return model;
}

/** serve-cluster's set-up: the app's SLO contract and pricing. */
struct ClusterSetup {
    ClusterConfig config;  ///< tenants and run shape, no sinks
    obs::SloObjective objective;
    obs::SloCostModel cost_model;
    double batch1_latency_s = 0.0;
    int64_t slo_batch = 0;
    int64_t compile_calls = 0;
    int64_t simulate_calls = 0;
    double compile_s = 0.0;
    double simulate_s = 0.0;
};

ClusterSetup
BuildClusterSetup(const Flags& flags, bool price)
{
    ClusterSetup setup;
    const App app = OrDie(BuildApp(flags.Str("app")), "app");
    const ChipConfig chip = OrDie(ChipByName("TPUv4i"), "chip");
    CompileOptions opts;  // serve-cluster's defaults
    opts.batch = 16;
    auto compile = [&](const CompileOptions& o) {
        ScopeClock clock(&setup.compile_s);
        ++setup.compile_calls;
        return OrDie(Compile(app.graph, chip, o), "compile");
    };
    LatencyTable table;
    for (int64_t batch = 1; batch <= 64; batch *= 2) {
        CompileOptions ladder = opts;
        ladder.batch = batch;
        const Program program = compile(ladder);
        ScopeClock clock(&setup.simulate_s);
        ++setup.simulate_calls;
        table.AddPoint(batch, OrDie(Simulate(program, chip), "simulate")
                                  .latency_s);
    }
    setup.batch1_latency_s = table.Eval(1);
    const double slo_s = app.slo_ms * 1e-3;
    setup.slo_batch = std::max<int64_t>(table.MaxBatchUnderSlo(slo_s), 1);
    const int cells = static_cast<int>(flags.Int("cells"));

    TenantConfig tenant;
    tenant.name = app.name;
    tenant.latency_s = [table](int64_t batch) { return table.Eval(batch); };
    tenant.max_batch = setup.slo_batch;
    tenant.slo_s = slo_s;
    tenant.arrival_rate =
        std::max(1.0, std::max(0.01, flags.Num("load")) *
                          table.ThroughputAt(setup.slo_batch) * cells);
    ClusterConfig& config = setup.config;
    config.tenants = {tenant};
    config.num_cells = cells;
    config.devices_per_cell = 1;
    config.seed = 42;
    config.policy = RoutingPolicy::kLeastLoaded;
    if (!price) return setup;
    config.duration_s = flags.Num("duration");
    config.seed = static_cast<uint64_t>(flags.Int("seed"));

    const double window_s = 0.05;
    setup.objective.name = tenant.name;
    setup.objective.tenant = tenant.name;
    setup.objective.availability_target =
        1.0 - std::min(std::max(config.slo_error_budget, 1e-6), 0.5);
    setup.objective.latency_target_s = tenant.slo_s;
    setup.objective.latency_quantile = 95.0;
    setup.objective.horizon_s = std::max(config.duration_s, window_s);
    setup.objective.fast_window_s = std::max(2.0 * window_s, 0.1);
    setup.objective.slow_window_s = std::max(10.0 * window_s, 0.5);

    opts.batch = setup.slo_batch;
    const Program program = compile(opts);
    std::vector<ScheduleEntry> schedule;
    SimResult sim;
    {
        ScopeClock clock(&setup.simulate_s);
        ++setup.simulate_calls;
        sim = OrDie(SimulateWithSchedule(program, chip, &schedule),
                    "simulate");
    }
    const PerfCounterFile counters = OrDie(
        CollectPerfCounters(program, chip, schedule, 0.0), "counters");
    config.batch_attribution = AttributionFromCounters(counters);
    const PowerReport power =
        OrDie(EstimatePower(program, sim, chip), "power");
    const TcoReport tco = OrDie(ComputeTco(chip, TcoParams{}), "tco");
    setup.cost_model = BuildSloCostModel(power, tco, TcoParams{},
                                         config.batch_attribution);
    return setup;
}

int
Ladder(const Flags& flags)
{
    const ClusterSetup setup = BuildClusterSetup(flags, false);
    std::printf("{\"batch1_latency_s\": %.17g, \"slo_batch\": %lld, "
                "\"offered_rps\": %.17g}\n",
                setup.batch1_latency_s,
                static_cast<long long>(setup.slo_batch),
                setup.config.tenants[0].arrival_rate);
    return 0;
}

int
ClusterWorkload(const Flags& flags)
{
    Output out;
    ClusterSetup setup = BuildClusterSetup(flags, true);
    out.metrics["compiler.compile_calls"] =
        static_cast<double>(setup.compile_calls);
    out.metrics["compiler.compile_s"] = setup.compile_s;
    out.metrics["sim.simulate_calls"] =
        static_cast<double>(setup.simulate_calls);
    out.metrics["sim.simulate_s"] = setup.simulate_s;
    const ClusterConfig& base = setup.config;
    ClusterResult last;
    auto run = [&](const ClusterConfig& config, const char* variant) {
        const double t0 = NowS();
        last = OrDie(RunCluster(config), "cluster");
        const double wall = NowS() - t0;
        out.runs.push_back(ClusterBooks(variant, wall, last));
        return wall;
    };
    auto slo_for = [&](obs::MetricsRegistry* reg) {
        auto tracker = std::make_unique<obs::SloTracker>();
        tracker->BindRegistry(reg);
        OrDie(tracker->AddObjective(setup.objective), "slo");
        tracker->SetCostModel(setup.cost_model);
        return tracker;
    };

    // The CLI's wiring: the process-wide registry (which the set-up
    // compiles already recorded into), trace, 256 traced requests,
    // windowed series and the SLO tracker; no alert rules.
    {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
        obs::TraceBuilder builder;
        obs::SpanCollector spans;
        spans.BindRegistry(&reg);
        obs::TimeSeriesCollector collector(obs::TimeSeriesOptions{});
        collector.BindRegistry(&reg);
        auto slo = slo_for(&reg);
        ClusterConfig config = base;
        config.registry = &reg;
        config.trace = &builder;
        config.spans = &spans;
        config.timeseries = &collector;
        config.slo = slo.get();
        run(config, "cli_wiring");
        obs::ReportMeta meta;
        meta.command = "serve-cluster";
        meta.app = base.tenants[0].name;
        meta.chip = "TPUv4i";
        meta.duration_s = last.duration_s;
        meta.seed = static_cast<int64_t>(config.seed);
        TimePostRun(meta, reg, collector, slo.get(), nullptr, &spans, true,
                    &out);
        out.metrics["obs.trace.events"] =
            static_cast<double>(builder.event_count());
        out.metrics["obs.spans.count"] =
            static_cast<double>(spans.spans().size());
    }

    // One sink at a time over the same run.
    const double none_s = Fastest([&] { return run(base, "no_sinks"); });
    out.metrics["cluster.requests"] = static_cast<double>(last.arrived);
    out.metrics["cluster.loop_s"] = none_s;
    out.metrics["cluster.loop_ns_per_req"] =
        none_s * 1e9 / static_cast<double>(std::max<int64_t>(last.arrived, 1));
    const double registry_s = Fastest([&] {
        obs::MetricsRegistry reg;
        ClusterConfig config = base;
        config.registry = &reg;
        return run(config, "registry");
    });
    out.metrics["obs.registry.s"] = registry_s - none_s;
    out.metrics["obs.slo.s"] = Fastest([&] {
        obs::MetricsRegistry reg;
        auto slo = slo_for(&reg);
        ClusterConfig config = base;
        config.registry = &reg;
        config.slo = slo.get();
        return run(config, "registry+slo");
    }) - registry_s;
    out.metrics["obs.timeseries.s"] = Fastest([&] {
        obs::MetricsRegistry reg;
        obs::TimeSeriesCollector collector(obs::TimeSeriesOptions{});
        collector.BindRegistry(&reg);
        ClusterConfig config = base;
        config.registry = &reg;
        config.timeseries = &collector;
        return run(config, "registry+timeseries");
    }) - registry_s;
    out.metrics["obs.trace.s"] = Fastest([&] {
        obs::TraceBuilder builder;
        ClusterConfig config = base;
        config.trace = &builder;
        return run(config, "trace");
    }) - none_s;
    out.metrics["obs.spans.s"] = Fastest([&] {
        obs::SpanCollector spans;
        ClusterConfig config = base;
        config.spans = &spans;
        return run(config, "spans");
    }) - none_s;
    out.Print();
    return 0;
}

// ---------------------------------------------------------------------
// scenario_retry_storm: check --scenario's wiring (RunScenario).
// ---------------------------------------------------------------------

/** RunScenario's default device model: affine 1 ms + 0.1 ms/sample. */
TenantConfig
DefaultTenant(const load::ScenarioTenant& st)
{
    TenantConfig t;
    t.name = st.name;
    t.latency_s = [](int64_t batch) {
        return 1e-3 + 1e-4 * static_cast<double>(batch);
    };
    t.max_batch = 32;
    t.slo_s = 0.010;
    return t;
}

double
CellCapacityRps(const TenantConfig& t, int devices)
{
    int64_t best = 1;
    for (int64_t b = 1; b <= t.max_batch; b *= 2) {
        if (t.latency_s(b) <= t.slo_s) best = b;
    }
    const double latency = t.latency_s(best);
    if (latency <= 0.0) return 0.0;
    return static_cast<double>(best) / latency *
           static_cast<double>(std::max(devices, 1));
}

int
ScenarioWorkload(const Flags& flags)
{
    load::Scenario scenario =
        OrDie(load::ParseScenarioFile(flags.Str("scenario")), "scenario");
    scenario.seed = static_cast<uint64_t>(flags.Int("seed"));
    std::vector<double> rates;
    std::vector<std::string> names;
    ClusterConfig base;
    for (const load::ScenarioTenant& st : scenario.tenants) {
        TenantConfig t = DefaultTenant(st);
        const double rate =
            st.rate > 0.0
                ? st.rate
                : st.load * CellCapacityRps(t, scenario.devices_per_cell);
        t.arrival_rate = rate;
        t.deadline_s = st.deadline_s;
        if (st.max_queue > 0) t.max_queue = st.max_queue;
        t.priority = st.priority;
        base.tenants.push_back(std::move(t));
        rates.push_back(rate);
        names.push_back(st.name);
    }
    base.num_cells = scenario.cells;
    base.devices_per_cell = scenario.devices_per_cell;
    base.duration_s = scenario.duration_s;
    base.seed = scenario.seed;
    base.policy = OrDie(ParseRoutingPolicy(scenario.policy), "policy");
    base.control_interval_s = scenario.control_interval_s;
    base.health_check_interval_s = scenario.health_interval_s;
    base.slo_error_budget = scenario.error_budget;
    if (!scenario.outages.empty()) {
        base.cell_faults.resize(static_cast<size_t>(scenario.cells));
        for (const load::ScenarioOutage& outage : scenario.outages) {
            base.cell_faults[static_cast<size_t>(outage.cell)] =
                CellOutagePlan(scenario.devices_per_cell,
                               outage.fail_at_s, outage.repair_at_s);
        }
    }

    Output out;
    ClusterResult last;
    SourceStats last_source;
    auto run = [&](ClusterConfig config, const char* variant) {
        TimedSource source(OrDie(
            load::BuildArrivalSource(scenario, rates, names), "source"));
        config.arrival_source = &source;
        const double t0 = NowS();
        last = OrDie(RunCluster(config), "cluster");
        const double wall = NowS() - t0;
        last_source = source.stats;
        out.runs.push_back(ClusterBooks(variant, wall, last));
        return wall;
    };
    obs::TimeSeriesOptions ts_options;
    ts_options.window_s = scenario.window_s;
    auto alerts_for = [&](obs::MetricsRegistry* reg) {
        auto alerts = std::make_unique<obs::AlertEngine>();
        alerts->BindRegistry(reg);
        OrDie(alerts->AddRulesFromText(scenario.alert_rules_text),
              "alerts");
        return alerts;
    };
    auto slo_for = [&](obs::MetricsRegistry* reg) {
        auto tracker = std::make_unique<obs::SloTracker>();
        tracker->BindRegistry(reg);
        OrDie(tracker->AddObjectivesFromText(scenario.slo_objectives_text),
              "slo");
        return tracker;
    };

    // The runner's wiring: private registry, every request traced,
    // alerts routed through window closes, SLO tracker.
    {
        obs::MetricsRegistry reg;
        obs::SpanCollector spans;
        spans.BindRegistry(&reg);
        auto alerts = alerts_for(&reg);
        obs::TimeSeriesCollector collector(ts_options);
        collector.BindRegistry(&reg);
        if (alerts->rule_count() > 0) collector.BindAlerts(alerts.get());
        auto slo = slo_for(&reg);
        ClusterConfig config = base;
        config.registry = &reg;
        config.timeseries = &collector;
        config.slo = slo.get();
        if (alerts->rule_count() > 0) config.alerts = alerts.get();
        config.spans = &spans;
        config.max_traced_requests = std::numeric_limits<int64_t>::max();
        run(config, "cli_wiring");
        obs::ReportMeta meta;
        meta.command = "check-scenario";
        meta.app = scenario.name;
        meta.duration_s = last.duration_s;
        meta.seed = static_cast<int64_t>(scenario.seed);
        meta.window_s = collector.window_s();
        TimePostRun(meta, reg, collector, slo.get(),
                    alerts->rule_count() > 0 ? alerts.get() : nullptr,
                    &spans, true, &out);
        out.metrics["obs.spans.count"] =
            static_cast<double>(spans.spans().size());
        out.metrics["obs.alerts.evaluations"] =
            static_cast<double>(alerts->evaluations());
    }

    double none_s = std::numeric_limits<double>::infinity();
    SourceStats source;
    for (int i = 0; i < kReps; ++i) {
        const double wall = run(base, "no_sinks");
        if (wall < none_s) {
            none_s = wall;
            source = last_source;
        }
    }
    // The decorator's own cost shows against the same run undecorated.
    Fastest([&] {
        auto bare = OrDie(load::BuildArrivalSource(scenario, rates, names),
                          "source");
        ClusterConfig config = base;
        config.arrival_source = bare.get();
        const double t0 = NowS();
        last = OrDie(RunCluster(config), "cluster");
        const double wall = NowS() - t0;
        out.runs.push_back(ClusterBooks("no_sinks_undecorated", wall, last));
        return wall;
    });
    out.metrics["cluster.requests"] = static_cast<double>(last.arrived);
    out.metrics["cluster.loop_s"] = none_s;
    out.metrics["cluster.loop_ns_per_req"] =
        none_s * 1e9 / static_cast<double>(std::max<int64_t>(last.arrived, 1));
    out.metrics["load.arrivals"] = static_cast<double>(source.arrivals);
    out.metrics["load.take_s"] = source.take_s;
    out.metrics["load.feedback_calls"] =
        static_cast<double>(source.feedback_calls);
    out.metrics["load.feedback_s"] = source.feedback_s;
    const double registry_s = Fastest([&] {
        obs::MetricsRegistry reg;
        ClusterConfig config = base;
        config.registry = &reg;
        return run(config, "registry");
    });
    out.metrics["obs.registry.s"] = registry_s - none_s;
    out.metrics["obs.slo.s"] = Fastest([&] {
        obs::MetricsRegistry reg;
        auto slo = slo_for(&reg);
        ClusterConfig config = base;
        config.registry = &reg;
        config.slo = slo.get();
        return run(config, "registry+slo");
    }) - registry_s;
    const double timeseries_s = Fastest([&] {
        obs::MetricsRegistry reg;
        obs::TimeSeriesCollector collector(ts_options);
        collector.BindRegistry(&reg);
        ClusterConfig config = base;
        config.registry = &reg;
        config.timeseries = &collector;
        return run(config, "registry+timeseries");
    });
    out.metrics["obs.timeseries.s"] = timeseries_s - registry_s;
    out.metrics["obs.alerts.s"] = Fastest([&] {
        obs::MetricsRegistry reg;
        auto alerts = alerts_for(&reg);
        obs::TimeSeriesCollector collector(ts_options);
        collector.BindRegistry(&reg);
        collector.BindAlerts(alerts.get());
        ClusterConfig config = base;
        config.registry = &reg;
        config.timeseries = &collector;
        config.alerts = alerts.get();
        return run(config, "registry+timeseries+alerts");
    }) - timeseries_s;
    out.metrics["obs.spans.s"] = Fastest([&] {
        obs::SpanCollector spans;
        ClusterConfig config = base;
        config.spans = &spans;
        config.max_traced_requests = std::numeric_limits<int64_t>::max();
        return run(config, "spans");
    }) - none_s;
    out.Print();
    return 0;
}

// ---------------------------------------------------------------------
// llm_continuous: serve-llm's wiring.
// ---------------------------------------------------------------------

int
LlmWorkload(const Flags& flags)
{
    llm::LlmCellConfig base;
    base.model = OrDie(llm::LlmModelByName("TINYLM"), "model");
    base.chip = Tpu_v4i();
    base.mode = llm::LlmMode::kContinuous;
    base.max_batch = flags.Int("max-batch");
    base.max_queue = 256;
    base.duration_s = flags.Num("duration");
    base.seed = static_cast<uint64_t>(flags.Int("seed"));
    llm::LlmTenant tenant;
    tenant.name = "LLM0";
    tenant.rate = flags.Num("rate");
    tenant.prompt = {flags.Num("prompt-mean"), flags.Num("prompt-sigma"),
                     4096};
    tenant.output = {flags.Num("output-mean"), flags.Num("output-sigma"),
                     1024};
    tenant.ttft_slo_s = 0.050;
    tenant.tpot_slo_s = 0.005;
    base.tenants.push_back(tenant);

    Output out;
    llm::LlmResult last;
    std::unique_ptr<TimedCostModel> last_cost;
    // Every run gets a fresh cost model, as serve-llm builds one per run.
    auto run = [&](llm::LlmCellConfig config, const char* variant) {
        last_cost = std::make_unique<TimedCostModel>(base.model, base.chip);
        config.cost_model = last_cost.get();
        const double t0 = NowS();
        last = OrDie(llm::RunLlmCell(config), "llm");
        const double wall = NowS() - t0;
        out.runs.push_back({variant, wall, last.arrived, last.completed,
                            last.dropped, last.shed, 0});
        return wall;
    };

    // serve-llm's wiring: private registry, spans, per-event series.
    {
        obs::MetricsRegistry reg;
        obs::SpanCollector spans;
        spans.BindRegistry(&reg);
        obs::TimeSeriesCollector collector(obs::TimeSeriesOptions{});
        collector.BindRegistry(&reg);
        llm::LlmCellConfig config = base;
        config.registry = &reg;
        config.spans = &spans;
        config.timeseries = &collector;
        run(config, "cli_wiring");
        obs::ReportMeta meta;
        meta.command = "serve-llm";
        meta.app = base.model.name;
        meta.chip = "TPUv4i";
        meta.duration_s = last.duration_s;
        meta.seed = static_cast<int64_t>(base.seed);
        TimePostRun(meta, reg, collector, nullptr, nullptr, nullptr, false,
                    &out);
        out.metrics["obs.spans.count"] =
            static_cast<double>(spans.spans().size());
    }

    double none_s = std::numeric_limits<double>::infinity();
    std::unique_ptr<TimedCostModel> cost;
    for (int i = 0; i < kReps; ++i) {
        const double wall = run(base, "no_sinks");
        if (wall < none_s) {
            none_s = wall;
            cost = std::move(last_cost);
        }
    }
    // The decorator's own cost shows against the same run undecorated
    // (RunLlmCell then builds its own cost model).
    Fastest([&] {
        const double t0 = NowS();
        last = OrDie(llm::RunLlmCell(base), "llm");
        const double wall = NowS() - t0;
        out.runs.push_back({"no_sinks_undecorated", wall, last.arrived,
                            last.completed, last.dropped, last.shed, 0});
        return wall;
    });
    out.metrics["llm.iterations"] = static_cast<double>(last.iterations);
    out.metrics["llm.loop_s"] = none_s;
    out.metrics["llm.loop_ns_per_iteration"] =
        none_s * 1e9 /
        static_cast<double>(std::max<int64_t>(last.iterations, 1));
    out.metrics["llm.cost_calls"] = static_cast<double>(cost->calls);
    out.metrics["llm.cost_simulations"] =
        static_cast<double>(cost->simulations());
    out.metrics["llm.cost_s"] = cost->seconds;
    const double registry_s = Fastest([&] {
        obs::MetricsRegistry reg;
        llm::LlmCellConfig config = base;
        config.registry = &reg;
        return run(config, "registry");
    });
    out.metrics["obs.registry.s"] = registry_s - none_s;
    out.metrics["obs.timeseries.s"] = Fastest([&] {
        obs::MetricsRegistry reg;
        obs::TimeSeriesCollector collector(obs::TimeSeriesOptions{});
        collector.BindRegistry(&reg);
        llm::LlmCellConfig config = base;
        config.registry = &reg;
        config.timeseries = &collector;
        return run(config, "registry+timeseries");
    }) - registry_s;
    out.metrics["obs.spans.s"] = Fastest([&] {
        obs::SpanCollector spans;
        llm::LlmCellConfig config = base;
        config.spans = &spans;
        return run(config, "spans");
    }) - none_s;
    out.Print();
    return 0;
}

// ---------------------------------------------------------------------
// calibrate: host-speed probe.
// ---------------------------------------------------------------------

/**
 * A fixed amount of the kind of work the simulator does (allocation,
 * hashing, sorting) that uses none of the library's code, so no change
 * to the program moves it. Its time tracks the host's speed, which
 * drifts with other tenants' load; run.py converts host seconds into
 * reference-host seconds with it. `check` proves the work was done.
 */
int
Calibrate()
{
    const double t0 = NowS();
    uint64_t x = 88172645463325252ull;  // xorshift64 state
    uint64_t check = 0;
    for (int rep = 0; rep < 6; ++rep) {
        std::vector<double> values;
        std::unordered_map<uint64_t, double> counts;
        for (int i = 0; i < 300000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push_back(static_cast<double>(x % 1000003));
            counts[x % 200000] += 1.0;
        }
        std::sort(values.begin(), values.end());
        check += static_cast<uint64_t>(values[values.size() / 2]) +
                 counts.size();
    }
    std::printf("{\"seconds\": %.9f, \"check\": %llu}\n", NowS() - t0,
                static_cast<unsigned long long>(check));
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    const Flags flags(argc, argv);
    if (command == "cluster") return ClusterWorkload(flags);
    if (command == "scenario") return ScenarioWorkload(flags);
    if (command == "llm") return LlmWorkload(flags);
    if (command == "ladder") return Ladder(flags);
    if (command == "calibrate") return Calibrate();
    std::fprintf(stderr,
                 "usage: simspeed_layers "
                 "cluster|scenario|llm|ladder|calibrate "
                 "--flag value ...\n");
    return 2;
}
