/**
 * @file
 * Batched SoA kernel perf bench and CI perf-gate artifact.
 *
 * Prints the consistency checks the batch layer must uphold (the
 * batched Monte-Carlo run() and the outcome-histogram
 * fault-campaign run() are bit-identical to the scalar
 * runReference() oracles), times both sides at one
 * thread in ns/sample on the two hottest paths — the per-stage
 * Monte-Carlo pipeline and the combined fault campaign — and
 * writes BENCH_batch_kernels.json into the artifacts directory.
 * The mixed-suite degradation curve is timed too (ns per sampled
 * mission over all 9 levels) and checked point by point against
 * the scaled reference; its timing has no baseline, so it is
 * reported but not gated. So are the standard normal draws behind
 * every lognormal spread: Rng::normalBlock against the normal()
 * loop it must reproduce bit for bit.
 * CI compares that artifact against the committed baseline in
 * bench/baselines/ via tools/check_perf.py and fails on >25%
 * ns/eval regression or any batch-vs-reference mismatch.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "components/catalog.hh"
#include "exec/parallel.hh"
#include "fault/campaign.hh"
#include "fault/fault_spec.hh"
#include "sim/monte_carlo.hh"
#include "studies/presets.hh"
#include "support/rng.hh"
#include "workload/algorithm.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * The per-stage Monte-Carlo path (the hottest evaluation loop),
 * with AI uncertainty only: the gate tracks the evaluation
 * *kernels*, and the other spreads add identical lognormal libm
 * draw cost to both sides, diluting the ratio the gate watches
 * without exercising any batched code. The full-spread variant is
 * printed as a secondary line.
 */
sim::UncertaintySpec
pipelineSpec()
{
    const auto catalog = components::Catalog::standard();
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = catalog.rooflines().byName("TX2-CPU + Navion");
    spec.pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    spec.aiRelStd = 0.10;
    spec.aMaxRelStd = 0.0;
    spec.rangeRelStd = 0.0;
    spec.computeRelStd = 0.0;
    spec.sensorRelStd = 0.0;
    return spec;
}

/** The same path with every default spread active (draw-bound). */
sim::UncertaintySpec
fullSpreadSpec()
{
    sim::UncertaintySpec spec = pipelineSpec();
    spec.aMaxRelStd = 0.10;
    spec.rangeRelStd = 0.05;
    spec.computeRelStd = 0.05;
    return spec;
}

/**
 * Stage-failure campaign over the full pipeline + redundancy
 * config. Like the Monte-Carlo spec, the gated campaign keeps the
 * fault set lean: every extra fault adds one uniform draw per
 * sample to both sides identically, diluting the kernel ratio the
 * gate watches. The many-fault variant is printed as a secondary
 * line.
 */
fault::CampaignSpec
campaignSpec()
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::annotatedAlgorithms();
    const auto &spa = algorithms.byName("SPA package delivery");
    const platform::RooflinePlatform &tx2 =
        catalog.rooflines().byName("Nvidia TX2");

    fault::CampaignSpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = tx2;
    spec.profile = workload::workloadProfile(spa, tx2);
    spec.workPerFrameGop = spa.workPerFrameGop();
    spec.pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    spec.redundancy = pipeline::RedundancyScheme::Dual;
    spec.faults = fault::findFaultSuite("stage-failure").faults;
    return spec;
}

/** The same campaign with the mixed suite appended (draw-bound). */
fault::CampaignSpec
mixedCampaignSpec()
{
    fault::CampaignSpec spec = campaignSpec();
    for (const fault::FaultSpec &fault :
         fault::findFaultSuite("mixed").faults)
        spec.faults.push_back(fault);
    return spec;
}

/**
 * The faults study's default campaign: the TX2 ceiling family under
 * the mixed suite (three faults, no pipeline). Its degradation curve
 * is what the study spends its time on.
 */
fault::CampaignSpec
curveCampaignSpec()
{
    fault::CampaignSpec spec = campaignSpec();
    spec.pipeline.reset();
    spec.redundancy = pipeline::RedundancyScheme::None;
    spec.faults = fault::findFaultSuite("mixed").faults;
    return spec;
}

/**
 * Stage-scoped platform-fault campaign on the accelerated Navion
 * family: ECC fallback derates the SLAM accelerator class and cache
 * contention inflates per-stage DRAM traffic. Platform faults with
 * a pipeline exercise the precomputed per-(mask, stage) variant
 * tables — the run() path indexes them per sample instead of
 * re-evaluating the roofline, which is exactly what this case gates.
 */
fault::CampaignSpec
stageCampaignSpec()
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::annotatedAlgorithms();
    const auto &spa = algorithms.byName("SPA package delivery");
    const platform::RooflinePlatform &navion =
        catalog.rooflines().byName("TX2-CPU + Navion");

    fault::CampaignSpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = navion;
    spec.profile = workload::workloadProfile(spa, navion);
    spec.workPerFrameGop = spa.workPerFrameGop();
    spec.pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    spec.faults = fault::findFaultSuite("ecc-fallback").faults;
    for (const fault::FaultSpec &fault :
         fault::findFaultSuite("cache-contention").faults)
        spec.faults.push_back(fault);
    return spec;
}

bool
identical(const sim::UncertaintyResult &a,
          const sim::UncertaintyResult &b)
{
    return a.samples == b.samples &&
           a.safeVelocity.mean == b.safeVelocity.mean &&
           a.safeVelocity.stddev == b.safeVelocity.stddev &&
           a.safeVelocity.p5 == b.safeVelocity.p5 &&
           a.safeVelocity.p50 == b.safeVelocity.p50 &&
           a.safeVelocity.p95 == b.safeVelocity.p95 &&
           a.probComputeBound == b.probComputeBound &&
           a.probComputeCeilingBinds == b.probComputeCeilingBinds &&
           a.probMemoryCeilingBinds == b.probMemoryCeilingBinds;
}

bool
identical(const fault::CampaignResult &a,
          const fault::CampaignResult &b)
{
    if (a.stageBindings.size() != b.stageBindings.size())
        return false;
    for (std::size_t s = 0; s < a.stageBindings.size(); ++s) {
        if (a.stageBindings[s].stage != b.stageBindings[s].stage ||
            a.stageBindings[s].probComputeBound !=
                b.stageBindings[s].probComputeBound ||
            a.stageBindings[s].probMemoryBound !=
                b.stageBindings[s].probMemoryBound ||
            a.stageBindings[s].probMeasured !=
                b.stageBindings[s].probMeasured)
            return false;
    }
    return a.samples == b.samples &&
           a.abortProbability == b.abortProbability &&
           a.faultActivationRate == b.faultActivationRate &&
           a.safeVelocity.mean == b.safeVelocity.mean &&
           a.safeVelocity.stddev == b.safeVelocity.stddev &&
           a.safeVelocity.p5 == b.safeVelocity.p5 &&
           a.safeVelocity.p95 == b.safeVelocity.p95 &&
           a.probComputeCeilingBinds == b.probComputeCeilingBinds &&
           a.probMemoryCeilingBinds == b.probMemoryCeilingBinds;
}

void
printFigure()
{
    bench::banner("Batch kernels",
                  "Batched SoA evaluation vs the scalar oracle");

    exec::ParallelOptions serial;
    serial.maxThreads = 1;

    // --- Monte-Carlo pipeline path -------------------------------
    const sim::MonteCarloAnalyzer analyzer(pipelineSpec());
    constexpr std::size_t mc_samples = 200000;
    const bool mc_identical =
        identical(analyzer.run(20011, 3, serial),
                  analyzer.runReference(20011, 3, serial));
    std::printf("  Monte-Carlo run() vs runReference() "
                "bit-identical: %s\n",
                mc_identical ? "yes" : "NO (BUG)");

    (void)analyzer.run(mc_samples / 10, 1, serial); // Warm-up.
    auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        analyzer.run(mc_samples, 1, serial).safeVelocity.mean);
    const double mc_batch_ms = millisSince(start);
    start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        analyzer.runReference(mc_samples, 1, serial)
            .safeVelocity.mean);
    const double mc_ref_ms = millisSince(start);
    const double mc_batch_ns = mc_batch_ms * 1e6 / mc_samples;
    const double mc_ref_ns = mc_ref_ms * 1e6 / mc_samples;
    std::printf("  Monte-Carlo pipeline, 1 thread: batch %.1f "
                "ns/sample, reference %.1f ns/sample (%.2fx)\n",
                mc_batch_ns, mc_ref_ns, mc_ref_ns / mc_batch_ns);

    // Secondary: all spreads active. Both sides pay the same
    // sequential lognormal draws, so the ratio shrinks toward 1 as
    // draw cost dominates — informative, not gated.
    const sim::MonteCarloAnalyzer full(fullSpreadSpec());
    start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        full.run(mc_samples, 1, serial).safeVelocity.mean);
    const double full_batch_ns =
        millisSince(start) * 1e6 / mc_samples;
    start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        full.runReference(mc_samples, 1, serial).safeVelocity.mean);
    const double full_ref_ns =
        millisSince(start) * 1e6 / mc_samples;
    std::printf("  (all spreads active: batch %.1f ns/sample, "
                "reference %.1f ns/sample, %.2fx)\n",
                full_batch_ns, full_ref_ns,
                full_ref_ns / full_batch_ns);

    // --- Combined fault campaign ---------------------------------
    const fault::FaultCampaign campaign(campaignSpec());
    constexpr std::size_t missions = 200000;
    const bool campaign_identical =
        identical(campaign.run(20011, 3, serial),
                  campaign.runReference(20011, 3, serial));
    std::printf("  Campaign run() vs runReference() "
                "bit-identical: %s\n",
                campaign_identical ? "yes" : "NO (BUG)");

    (void)campaign.run(missions / 10, 1, serial); // Warm-up.
    start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        campaign.run(missions, 1, serial).safeVelocity.mean);
    const double fc_batch_ms = millisSince(start);
    start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        campaign.runReference(missions, 1, serial)
            .safeVelocity.mean);
    const double fc_ref_ms = millisSince(start);
    const double fc_batch_ns = fc_batch_ms * 1e6 / missions;
    const double fc_ref_ns = fc_ref_ms * 1e6 / missions;
    std::printf("  Fault campaign, 1 thread: batch %.1f "
                "ns/sample, reference %.1f ns/sample (%.2fx)\n",
                fc_batch_ns, fc_ref_ns, fc_ref_ns / fc_batch_ns);

    // Secondary: mixed suite appended — five draws per sample and
    // a 32-mask histogram. Informative, not gated.
    const fault::FaultCampaign mixed(mixedCampaignSpec());
    (void)mixed.run(missions / 10, 1, serial); // Warm-up.
    start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        mixed.run(missions, 1, serial).safeVelocity.mean);
    const double mixed_batch_ns =
        millisSince(start) * 1e6 / missions;
    start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        mixed.runReference(missions, 1, serial).safeVelocity.mean);
    const double mixed_ref_ns = millisSince(start) * 1e6 / missions;
    std::printf("  (mixed suite appended: batch %.1f ns/sample, "
                "reference %.1f ns/sample, %.2fx)\n",
                mixed_batch_ns, mixed_ref_ns,
                mixed_ref_ns / mixed_batch_ns);

    // --- Degradation curve ---------------------------------------
    // The mixed suite at the faults study's 9 levels: one sampling
    // pass counts each sample's firing-level signature for all of
    // them. Every point must equal runReference() of the spec scaled
    // to its level. Timed in ns per sampled mission (all 9 levels);
    // reported, not gated.
    const fault::FaultCampaign curve_campaign(curveCampaignSpec());
    constexpr std::size_t curve_levels = 9;
    bool curve_identical = true;
    for (const fault::DegradationPoint &point :
         curve_campaign.degradationCurve(curve_levels, 20011, 3,
                                         serial)) {
        fault::CampaignSpec scaled = curve_campaign.spec();
        scaled.probabilityScale *= point.scale;
        curve_identical =
            curve_identical &&
            identical(point.result,
                      fault::FaultCampaign(std::move(scaled))
                          .runReference(20011, 3, serial));
    }
    std::printf("  Curve points vs scaled runReference() "
                "bit-identical: %s\n",
                curve_identical ? "yes" : "NO (BUG)");

    (void)curve_campaign.degradationCurve(curve_levels, missions / 10,
                                          1, serial); // Warm-up.
    start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        curve_campaign.degradationCurve(curve_levels, missions, 1,
                                        serial)
            .back()
            .result.safeVelocity.mean);
    const double curve_batch_ns = millisSince(start) * 1e6 / missions;
    std::printf("  Degradation curve, mixed suite, %zu levels, "
                "1 thread: %.1f ns/sample\n",
                curve_levels, curve_batch_ns);

    // --- Stage-scoped fault campaign -----------------------------
    // Platform faults scoped to single pipeline stages: each
    // occupied outcome reads the precomputed per-(mask, stage)
    // variant tables, so this case gates the stage-scoped kinds.
    const fault::FaultCampaign stage_campaign(stageCampaignSpec());
    const bool stage_identical =
        identical(stage_campaign.run(20011, 3, serial),
                  stage_campaign.runReference(20011, 3, serial));
    std::printf("  Stage-fault campaign run() vs runReference() "
                "bit-identical: %s\n",
                stage_identical ? "yes" : "NO (BUG)");

    (void)stage_campaign.run(missions / 10, 1, serial); // Warm-up.
    start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        stage_campaign.run(missions, 1, serial).safeVelocity.mean);
    const double stage_batch_ns =
        millisSince(start) * 1e6 / missions;
    start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        stage_campaign.runReference(missions, 1, serial)
            .safeVelocity.mean);
    const double stage_ref_ns = millisSince(start) * 1e6 / missions;
    std::printf("  Stage-fault campaign, 1 thread: batch %.1f "
                "ns/sample, reference %.1f ns/sample (%.2fx)\n",
                stage_batch_ns, stage_ref_ns,
                stage_ref_ns / stage_batch_ns);

    // --- Standard normal draws -----------------------------------
    // The Monte-Carlo draw phase: one normalBlock call per kernel
    // sub-batch (256 draws = 64 samples x the 4 spreads of the
    // pipeline spec) against the normal() loop it replaces, over the
    // same stream. Medians of 9 repeats, ns per draw; reported, not
    // gated.
    constexpr std::size_t draws = 1 << 20;
    constexpr std::size_t sub_batch = 256;
    constexpr std::size_t repeats = 9;
    std::vector<double> scalar_draws(draws);
    std::vector<double> block_draws(draws);
    std::vector<double> scalar_ms;
    std::vector<double> block_ms;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
        Rng scalar_rng(17 + rep);
        start = std::chrono::steady_clock::now();
        for (double &z : scalar_draws)
            z = scalar_rng.normal();
        scalar_ms.push_back(millisSince(start));
        Rng block_rng(17 + rep);
        start = std::chrono::steady_clock::now();
        for (std::size_t k = 0; k < draws; k += sub_batch)
            block_rng.normalBlock(block_draws.data() + k, sub_batch);
        block_ms.push_back(millisSince(start));
    }
    const bool normal_identical =
        std::memcmp(scalar_draws.data(), block_draws.data(),
                    draws * sizeof(double)) == 0;
    const auto median_ns = [&](std::vector<double> &ms) {
        std::nth_element(ms.begin(), ms.begin() + repeats / 2,
                         ms.end());
        return ms[repeats / 2] * 1e6 / draws;
    };
    const double normal_ns = median_ns(scalar_ms);
    const double normal_block_ns = median_ns(block_ms);
    std::printf("  Normal draws, 1 thread: normalBlock %.1f ns/draw, "
                "normal() %.1f ns/draw (%.2fx); bit-identical: %s\n",
                normal_block_ns, normal_ns, normal_ns / normal_block_ns,
                normal_identical ? "yes" : "NO (BUG)");

    bench::note("absolute timings depend on the machine; CI gates "
                "on the committed baseline with 25% headroom");

    const bool bit_identical =
        mc_identical && campaign_identical && stage_identical;
    const std::string path =
        bench::artifactsDir() + "/BENCH_batch_kernels.json";
    std::ofstream json(path);
    json << "{\n"
         << "  \"benchmark\": \"batch_kernels\",\n"
         << "  \"mc_samples\": " << mc_samples << ",\n"
         << "  \"mc_pipeline_batch_ns_per_eval\": " << mc_batch_ns
         << ",\n"
         << "  \"mc_pipeline_reference_ns_per_eval\": " << mc_ref_ns
         << ",\n"
         << "  \"mc_pipeline_speedup\": " << mc_ref_ns / mc_batch_ns
         << ",\n"
         << "  \"campaign_samples\": " << missions << ",\n"
         << "  \"campaign_batch_ns_per_eval\": " << fc_batch_ns
         << ",\n"
         << "  \"campaign_reference_ns_per_eval\": " << fc_ref_ns
         << ",\n"
         << "  \"campaign_speedup\": " << fc_ref_ns / fc_batch_ns
         << ",\n"
         << "  \"stage_campaign_batch_ns_per_eval\": "
         << stage_batch_ns << ",\n"
         << "  \"stage_campaign_reference_ns_per_eval\": "
         << stage_ref_ns << ",\n"
         << "  \"stage_campaign_speedup\": "
         << stage_ref_ns / stage_batch_ns << ",\n"
         << "  \"curve_levels\": " << curve_levels << ",\n"
         << "  \"curve_batch_ns_per_eval\": " << curve_batch_ns
         << ",\n"
         << "  \"curve_bit_identical\": "
         << (curve_identical ? "true" : "false") << ",\n"
         << "  \"normal_ns_per_draw\": " << normal_ns << ",\n"
         << "  \"normal_block_ns_per_draw\": " << normal_block_ns
         << ",\n"
         << "  \"normal_block_bit_identical\": "
         << (normal_identical ? "true" : "false") << ",\n"
         << "  \"bit_identical\": "
         << (bit_identical ? "true" : "false") << "\n"
         << "}\n";
    std::printf("  artifacts: BENCH_batch_kernels.json\n");
}

void
BM_MonteCarloPipelineBatch(benchmark::State &state)
{
    const sim::MonteCarloAnalyzer analyzer(pipelineSpec());
    exec::ParallelOptions serial;
    serial.maxThreads = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analyzer.run(4096, 1, serial).safeVelocity.mean);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_MonteCarloPipelineBatch);

void
BM_MonteCarloPipelineReference(benchmark::State &state)
{
    const sim::MonteCarloAnalyzer analyzer(pipelineSpec());
    exec::ParallelOptions serial;
    serial.maxThreads = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analyzer.runReference(4096, 1, serial)
                .safeVelocity.mean);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_MonteCarloPipelineReference);

void
BM_CampaignBatch(benchmark::State &state)
{
    const fault::FaultCampaign campaign(campaignSpec());
    exec::ParallelOptions serial;
    serial.maxThreads = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            campaign.run(4096, 1, serial).safeVelocity.mean);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_CampaignBatch);

void
BM_CampaignReference(benchmark::State &state)
{
    const fault::FaultCampaign campaign(campaignSpec());
    exec::ParallelOptions serial;
    serial.maxThreads = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            campaign.runReference(4096, 1, serial)
                .safeVelocity.mean);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_CampaignReference);

void
BM_StageCampaignBatch(benchmark::State &state)
{
    const fault::FaultCampaign campaign(stageCampaignSpec());
    exec::ParallelOptions serial;
    serial.maxThreads = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            campaign.run(4096, 1, serial).safeVelocity.mean);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_StageCampaignBatch);

void
BM_StageCampaignReference(benchmark::State &state)
{
    const fault::FaultCampaign campaign(stageCampaignSpec());
    exec::ParallelOptions serial;
    serial.maxThreads = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            campaign.runReference(4096, 1, serial)
                .safeVelocity.mean);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_StageCampaignReference);

} // namespace

int
main(int argc, char **argv)
{
    printFigure();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
