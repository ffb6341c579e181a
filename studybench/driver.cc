/**
 * @file
 * Child process of the study benchmark (studybench/run.py).
 *
 *   studybench info
 *       build facts for provenance: SIMD backend, width and mode
 *   studybench mc --samples N --seed S --threads T
 *       the mc_pipeline workload: one MonteCarloAnalyzer::run,
 *       its UncertaintyResult printed as one flat JSON object
 *   studybench trace --primary faults|mc|roofline --threads T
 *                    --out DIR [--seed S] [--ai-max A]
 *                    [--fault-samples N] [--levels L]
 *                    [--mc-samples M] [--roofline-samples R]
 *       the traced replay: times each layer's public calls from
 *       outside the library and prints the spans as JSON at exit
 *
 * Spans are recorded here, around calls into the library; nothing
 * inside the library is instrumented. Every span is top level (the
 * calls are made one after another), so a span's self time is its
 * duration. The primary workload runs first; the layer replays
 * follow at the workload's geometry (see studybench/README.md).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "components/catalog.hh"
#include "core/f1_batch.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "fault/fault_spec.hh"
#include "platform/evaluation_plan.hh"
#include "scenario/runner.hh"
#include "sim/monte_carlo.hh"
#include "simd/simd.hh"
#include "skyline/session.hh"
#include "studies/presets.hh"
#include "support/atomic_file.hh"
#include "support/errors.hh"
#include "support/rng.hh"
#include "workload/algorithm.hh"
#include "workload/batch_eval.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;

constexpr std::size_t kBlock = sim::MonteCarloAnalyzer::kernelBlock;

/** Seconds on the monotonic clock the parent process also reads. */
double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** `--name value` arguments after the subcommand. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; i += 2) {
            const std::string key = argv[i];
            if (key.rfind("--", 0) != 0 || i + 1 >= argc)
                throw ModelError("expected '--name value', got '" +
                                 key + "'");
            _values[key.substr(2)] = argv[i + 1];
        }
    }

    std::string text(const std::string &name,
                     const std::string &fallback = "") const
    {
        const auto it = _values.find(name);
        return it == _values.end() ? fallback : it->second;
    }

    std::uint64_t count(const std::string &name,
                        std::uint64_t fallback) const
    {
        const std::string value = text(name);
        if (value.empty())
            return fallback;
        std::size_t used = 0;
        const unsigned long long parsed = std::stoull(value, &used);
        if (used != value.size())
            throw ModelError("--" + name + " expects an integer");
        return parsed;
    }

  private:
    std::map<std::string, std::string> _values;
};

std::string
num(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** The mc_pipeline spec: Pelican at 20 Hz on TX2-CPU + Navion
 * running the MAVBench package-delivery pipeline, default spreads
 * plus a 10% arithmetic-intensity spread. */
sim::UncertaintySpec
mcSpec()
{
    const auto catalog = components::Catalog::standard();
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = catalog.rooflines().byName("TX2-CPU + Navion");
    spec.pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    spec.aiRelStd = 0.10;
    return spec;
}

/** The campaign the faults study builds for fault=mixed on its
 * default session (Nvidia TX2 preset, no stage faults). */
fault::CampaignSpec
faultSpec(const skyline::SkylineSession &session)
{
    const auto machine = session.rooflinePlatform();
    const auto algorithms = workload::annotatedAlgorithms();
    const auto &algorithm = algorithms.byName(session.knobs().algorithm);
    fault::CampaignSpec spec;
    spec.nominal = session.model().inputs();
    spec.platform = machine;
    spec.profile = workload::workloadProfile(algorithm, *machine);
    spec.workPerFrameGop = algorithm.workPerFrameGop();
    spec.faults = fault::findFaultSuite("mixed").faults;
    return spec;
}

skyline::SkylineSession
faultSession()
{
    skyline::SkylineSession session;
    session.set("platform", "Nvidia TX2");
    return session;
}

void
addDistribution(std::vector<std::pair<std::string, double>> &out,
                const std::string &name, const sim::Distribution &d)
{
    out.emplace_back(name + ".mean", d.mean);
    out.emplace_back(name + ".stddev", d.stddev);
    out.emplace_back(name + ".p5", d.p5);
    out.emplace_back(name + ".p50", d.p50);
    out.emplace_back(name + ".p95", d.p95);
}

/** Every UncertaintyResult field as one flat JSON object. */
std::string
renderResult(const sim::UncertaintyResult &r,
             const platform::RooflinePlatform &machine)
{
    std::vector<std::pair<std::string, double>> fields;
    addDistribution(fields, "safe_velocity", r.safeVelocity);
    addDistribution(fields, "knee_throughput", r.kneeThroughput);
    addDistribution(fields, "roof_velocity", r.roofVelocity);
    fields.emplace_back("prob_compute_bound", r.probComputeBound);
    fields.emplace_back("prob_sensor_bound", r.probSensorBound);
    fields.emplace_back("prob_control_bound", r.probControlBound);
    fields.emplace_back("prob_physics_bound", r.probPhysicsBound);
    for (std::size_t i = 0; i < r.probComputeCeilingBinds.size(); ++i)
        fields.emplace_back("binds_compute." +
                                machine.computeCeilings()[i].name,
                            r.probComputeCeilingBinds[i]);
    for (std::size_t i = 0; i < r.probMemoryCeilingBinds.size(); ++i)
        fields.emplace_back("binds_memory." +
                                machine.memoryCeilings()[i].name,
                            r.probMemoryCeilingBinds[i]);
    for (const auto &stage : r.stageBindings) {
        fields.emplace_back("stage." + stage.stage + ".compute_bound",
                            stage.probComputeBound);
        fields.emplace_back("stage." + stage.stage + ".memory_bound",
                            stage.probMemoryBound);
        fields.emplace_back("stage." + stage.stage + ".measured",
                            stage.probMeasured);
    }
    fields.emplace_back("samples", static_cast<double>(r.samples));
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
        out += (i ? ", " : "") + jsonString(fields[i].first) + ": " +
               num(fields[i].second);
    }
    return out + "}";
}

int
runInfo()
{
    std::printf("{\"simd_backend\": %s, \"simd_width\": %zu, "
                "\"simd_mode\": %s, \"hardware_concurrency\": %u}\n",
                jsonString(simd::backendName()).c_str(),
                simd::nativeWidth,
                jsonString(simd::activeMode() == simd::Mode::Native
                           ? "native"
                           : "scalar")
                    .c_str(),
                std::thread::hardware_concurrency());
    return 0;
}

int
runMc(const Args &args)
{
    exec::ThreadPool pool(args.count("threads", 1));
    exec::ParallelOptions parallel;
    parallel.pool = &pool;
    const sim::UncertaintySpec spec = mcSpec();
    const sim::MonteCarloAnalyzer analyzer(spec);
    const sim::UncertaintyResult result = analyzer.run(
        args.count("samples", 10), args.count("seed", 1), parallel);
    std::printf("%s\n", renderResult(result, *spec.platform).c_str());
    return 0;
}

/** In-memory span log, written out once when the run ends. */
class Trace
{
  public:
    /** Time `fn()` as one span named `name`; returns its result. */
    template <typename Fn>
    auto span(const std::string &name, Fn &&fn)
    {
        const double start = now();
        auto result = fn();
        _spans.push_back({name, start, now()});
        return result;
    }

    void count(const std::string &name, std::uint64_t value)
    {
        _counts.emplace_back(name, value);
    }

    std::string render(const std::string &extra) const
    {
        std::string out = "{\"spans\": [";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            out += (i ? ", " : "") + std::string("{\"name\": ") +
                   jsonString(_spans[i].name) +
                   ", \"start\": " + num(_spans[i].start) +
                   ", \"end\": " + num(_spans[i].end) + "}";
        }
        out += "], \"counts\": {";
        for (std::size_t i = 0; i < _counts.size(); ++i) {
            out += (i ? ", " : "") + jsonString(_counts[i].first) + ": " +
                   std::to_string(_counts[i].second);
        }
        return out + "}" + extra + "}";
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
    };
    std::vector<Span> _spans;
    std::vector<std::pair<std::string, std::uint64_t>> _counts;
};

/** Lognormal factors with E = 1 and 10% spread, for kernel inputs. */
std::vector<double>
factors(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> out(n);
    const double sigma = std::sqrt(std::log(1.01));
    for (double &f : out)
        f = std::exp(-sigma * sigma / 2.0 + sigma * rng.normal());
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

int
runTrace(const Args &args)
{
    const std::string primary = args.text("primary");
    if (primary != "faults" && primary != "mc" && primary != "roofline")
        throw ModelError("--primary must be faults, mc or roofline");
    const std::uint64_t seed = args.count("seed", 1);
    const std::size_t fault_samples = args.count("fault-samples", 10);
    const std::size_t levels = args.count("levels", 2);
    if (levels < 2)
        throw ModelError("--levels must be at least 2");
    const std::size_t mc_samples = args.count("mc-samples", 10);
    const std::string out_dir = args.text("out");
    if (out_dir.empty())
        throw ModelError("trace requires --out");
    const bool mc_primary = primary == "mc";

    exec::ThreadPool pool(args.count("threads", 1));
    exec::ParallelOptions parallel;
    parallel.pool = &pool;
    Trace trace;
    std::string extra;

    // The MC analyzer: the workload itself when primary, else the
    // sim layer at the given (setup) size.
    const auto runMcLayer = [&] {
        const sim::UncertaintySpec spec = mcSpec();
        const auto analyzer = trace.span("sim.mc_construct", [&] {
            return sim::MonteCarloAnalyzer(spec);
        });
        const auto result = trace.span("sim.mc_run", [&] {
            return analyzer.run(mc_samples, seed, parallel);
        });
        if (mc_primary) {
            extra = ", \"mc\": " + renderResult(result, *spec.platform);
        }
    };

    // The study `skyline_cli run` would run, once with artifacts
    // and once without.
    scenario::ScenarioSpec study;
    if (primary == "roofline") {
        study.study = "roofline";
        study.overrides.set("workloads", "annotated");
        study.overrides.set("samples",
                            args.text("roofline-samples", "97"));
        study.overrides.set("ai_max", args.text("ai-max", "1000"));
    } else {
        study.study = "faults";
        study.overrides.set("fault", "mixed");
        study.overrides.set("samples", std::to_string(fault_samples));
        study.overrides.set("levels", std::to_string(levels));
        study.overrides.set("seed", std::to_string(seed));
    }
    std::vector<std::string> artifacts;
    const auto runStudy = [&] {
        const scenario::ScenarioRunner runner;
        scenario::RunnerOptions options;
        options.parallel = parallel;
        options.outDir = out_dir;
        const auto outcome = trace.span("scenario.run", [&] {
            return runner.run(study, options);
        });
        if (!outcome.ok)
            throw ModelError("scenario failed: " + outcome.error);
        artifacts = outcome.artifacts;
        options.outDir.clear();
        trace.span("scenario.run_noartifacts", [&] {
            return runner.run(study, options);
        });
    };

    if (mc_primary) {
        runMcLayer();
        runStudy();
    } else {
        runStudy();
    }

    // skyline + fault layers, at the faults geometry given.
    const auto session =
        trace.span("skyline.session", [&] { return faultSession(); });
    const fault::CampaignSpec campaign_spec = faultSpec(session);
    const std::size_t fault_count = campaign_spec.faults.size();
    const auto campaign = trace.span("fault.construct", [&] {
        return fault::FaultCampaign(campaign_spec);
    });
    trace.span("fault.run", [&] {
        return campaign.run(fault_samples, seed, parallel);
    });
    trace.span("fault.curve", [&] {
        return campaign.degradationCurve(levels, fault_samples, seed,
                                         parallel);
    });
    if (!mc_primary)
        runMcLayer();

    // The sampler geometry the replays below reproduce: the MC run
    // for mc_pipeline, the 1 + levels campaigns otherwise.
    const std::size_t samples = mc_primary ? mc_samples : fault_samples;
    const std::size_t runs = mc_primary ? 1 : 1 + levels;
    const std::size_t summaries = mc_primary ? 3 : runs;

    // sim: the run's Distribution::fromSamples reductions, over
    // data shaped like the run's: continuous draws for Monte-Carlo;
    // for a campaign, one value per combination of fired faults
    // (its only possible outcomes), at each run's fault scale.
    {
        Rng rng(seed);
        std::vector<double> data(samples);
        for (std::size_t k = 0; k < summaries; ++k) {
            if (mc_primary) {
                rng.uniformBlock(data.data(), data.size());
            } else {
                const double scale =
                    k == 0 ? 1.0
                           : static_cast<double>(k - 1) /
                                 static_cast<double>(levels - 1);
                for (double &value : data) {
                    unsigned mask = 0;
                    for (std::size_t j = 0; j < fault_count; ++j) {
                        if (rng.uniform() <
                            campaign_spec.faults[j].probability * scale)
                            mask |= 1u << j;
                    }
                    value = 1.0 + mask;
                }
            }
            std::vector<double> copy = data;
            trace.span("sim.reduce", [&] {
                return sim::Distribution::fromSamples(std::move(copy));
            });
        }
    }

    // support: the run's RNG draws, block by block as the
    // samplers make them (uniform blocks for campaigns, one normal
    // per active lognormal spread for Monte-Carlo).
    {
        Rng rng(seed);
        std::uint64_t draws = 0;
        if (mc_primary) {
            constexpr std::size_t spreads = 4;
            draws = samples * spreads;
            trace.span("support.rng", [&] {
                double sink = 0.0;
                for (std::uint64_t i = 0; i < draws; ++i)
                    sink += rng.normal();
                return sink;
            });
        } else {
            std::vector<double> buf(kBlock * fault_count);
            draws = runs * samples * fault_count;
            trace.span("support.rng", [&] {
                for (std::size_t r = 0; r < runs; ++r) {
                    for (std::size_t lo = 0; lo < samples;
                         lo += kBlock) {
                        const std::size_t m =
                            std::min(kBlock, samples - lo);
                        rng.uniformBlock(buf.data(), m * fault_count);
                    }
                }
                return buf[0];
            });
        }
        trace.count("support.draws", draws);
    }

    // support: the atomic writes of the study's artifact bytes.
    {
        std::vector<std::pair<std::string, std::string>> files;
        std::uint64_t bytes = 0;
        for (const auto &path : artifacts) {
            files.emplace_back(
                out_dir + "/rewrite_" +
                    std::filesystem::path(path).filename().string(),
                readFile(path));
            bytes += files.back().second.size();
        }
        trace.span("support.write", [&] {
            for (const auto &[path, content] : files)
                writeFileAtomic(path, content);
            return files.size();
        });
        for (const auto &file : files)
            std::filesystem::remove(file.first);
        trace.count("plot.bytes", bytes);
    }

    // workload + platform: compiled plans and their block kernels.
    // On mc_pipeline they run at the workload's sample count on its
    // (pipeline, platform); elsewhere at one RNG block.
    const sim::UncertaintySpec mc = mcSpec();
    const std::size_t plan_evals =
        mc_primary ? samples : sim::MonteCarloAnalyzer::sampleBlock;
    const std::vector<double> f = factors(plan_evals, seed);
    {
        const auto plan = trace.span("workload.plan_compile", [&] {
            return workload::StagePipelinePlan(*mc.pipeline,
                                               *mc.platform);
        });
        workload::StagePipelinePlan::Scratch scratch;
        double throughput[kBlock] = {};
        std::uint32_t slot[kBlock] = {};
        std::vector<std::uint64_t> kinds(plan.stageCount() * 3);
        trace.span("workload.kernel", [&] {
            for (std::size_t lo = 0; lo < plan_evals; lo += kBlock) {
                const std::size_t m = std::min(kBlock, plan_evals - lo);
                plan.evaluateBlock(0, false, f.data() + lo, m,
                                   throughput, slot, kinds.data(),
                                   scratch);
            }
            return throughput[0];
        });
        trace.count("workload.kernel_evals", plan_evals);
    }
    {
        const auto &machine = mc_primary ? *mc.platform
                                         : *campaign_spec.platform;
        const platform::WorkloadProfile profile =
            mc_primary
                ? workload::workloadProfile(
                      workload::annotatedAlgorithms().byName(
                          "SPA package delivery"),
                      machine)
                : campaign_spec.profile;
        const auto plan = trace.span("platform.plan_compile", [&] {
            return platform::EvaluationPlan(machine, profile);
        });
        std::vector<double> ai(plan_evals);
        for (std::size_t i = 0; i < plan_evals; ++i)
            ai[i] = profile.ai.value() * f[i];
        double attainable[kBlock] = {};
        std::uint32_t slot[kBlock] = {};
        trace.span("platform.kernel", [&] {
            for (std::size_t lo = 0; lo < plan_evals; lo += kBlock) {
                const std::size_t m = std::min(kBlock, plan_evals - lo);
                plan.evaluateBlock(0, ai.data() + lo, m, attainable,
                                   slot);
            }
            return attainable[0];
        });
        trace.count("platform.kernel_evals", plan_evals);
    }

    // core: the F-1 block kernel each sampler calls, over every
    // sample of every run (analyzeBlock for Monte-Carlo,
    // analyzeVSafeBlock for campaigns).
    {
        const core::F1Inputs nominal =
            mc_primary ? mc.nominal : campaign_spec.nominal;
        const std::size_t n = std::min<std::size_t>(samples, 1 << 16);
        const std::vector<double> g = factors(n, seed + 1);
        std::vector<double> a_max(n), range(n), sensor(n), compute(n);
        for (std::size_t i = 0; i < n; ++i) {
            a_max[i] = nominal.aMax.value() * g[i];
            range[i] = nominal.sensingRange.value() * g[n - 1 - i];
            sensor[i] = nominal.sensorRate.value();
            compute[i] = nominal.computeRate.value() * g[i];
        }
        double v_safe[kBlock] = {}, knee[kBlock] = {}, roof[kBlock] = {};
        std::uint8_t bound[kBlock] = {};
        std::uint64_t blocks = 0;
        trace.span("core.kernel", [&] {
            for (std::size_t r = 0; r < runs; ++r) {
                for (std::size_t lo = 0; lo < samples; lo += kBlock) {
                    const std::size_t m = std::min(kBlock, samples - lo);
                    // Inputs cycle through an n-sample window.
                    const std::size_t at = lo % n <= n - m ? lo % n : 0;
                    if (mc_primary) {
                        core::analyzeBlock(
                            a_max.data() + at, range.data() + at,
                            sensor.data() + at, compute.data() + at,
                            nominal.controlRate.value(),
                            nominal.kneeFraction, m, v_safe, knee,
                            roof, bound);
                    } else {
                        core::analyzeVSafeBlock(
                            nominal.aMax.value(),
                            nominal.sensingRange.value(),
                            sensor.data() + at, compute.data() + at,
                            nominal.controlRate.value(), m, v_safe);
                    }
                    ++blocks;
                }
            }
            return v_safe[0];
        });
        trace.count("core.kernel_blocks", blocks);
        trace.count("core.kernel_evals", runs * samples);
    }

    // exec: chunk dispatch at the samplers' geometry (one chunk per
    // RNG block, one parallel loop per run), with an empty body.
    {
        const std::size_t blocks =
            (samples + sim::MonteCarloAnalyzer::sampleBlock - 1) /
            sim::MonteCarloAnalyzer::sampleBlock;
        exec::ParallelOptions options = parallel;
        options.grain = 1;
        trace.span("exec.dispatch", [&] {
            for (std::size_t r = 0; r < runs; ++r) {
                exec::parallelForSlots(
                    blocks, [](std::size_t, std::size_t, std::size_t) {},
                    options);
            }
            return blocks;
        });
        trace.count("exec.chunks", runs * blocks);
    }

    trace.count("trace.samples",
                mc_primary ? samples
                           : (primary == "faults"
                                  ? runs * samples
                                  : args.count("roofline-samples", 97)));
    trace.count("sim.sample_buffer_bytes",
                mc_primary ? 3 * sizeof(double) * samples
                           : (2 * sizeof(double) + 1) * samples);
    std::printf("%s\n", trace.render(extra).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    try {
        const Args args(argc, argv);
        if (command == "info")
            return runInfo();
        if (command == "mc")
            return runMc(args);
        if (command == "trace")
            return runTrace(args);
        std::fprintf(stderr, "usage: studybench info | mc ... | "
                             "trace ... (see driver.cc)\n");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "studybench %s: %s\n", command.c_str(),
                     e.what());
    }
    return 1;
}
