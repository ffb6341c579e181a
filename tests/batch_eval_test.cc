/**
 * @file
 * Bit-identity property tests for the batched SoA evaluation layer:
 * platform::EvaluationPlan vs RooflinePlatform::attainable(),
 * workload::StagePipelinePlan vs StagePipelineEvaluator, the
 * core::analyze*Block kernels vs F1Model::analyzeInto(), the
 * Monte-Carlo / fault-campaign run() vs runReference() oracles at
 * 1/2/8 threads, the design-space sweep vs per-point
 * analyze(), the allocation-free guarantee of the kernels, and the
 * exec::parallelForSlots / suggestedGrain contracts they ride on.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "components/catalog.hh"
#include "core/f1_batch.hh"
#include "core/f1_model.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "fault/fault_spec.hh"
#include "platform/evaluation_plan.hh"
#include "sim/monte_carlo.hh"
#include "skyline/dse.hh"
#include "studies/presets.hh"
#include "support/errors.hh"
#include "support/rng.hh"
#include "workload/algorithm.hh"
#include "workload/batch_eval.hh"
#include "workload/spa_pipeline.hh"
#include "workload/stage_eval.hh"
#include "workload/throughput.hh"

#include "alloc_guard.hh"

namespace {

using namespace uavf1;

const platform::RooflinePlatform &
preset(const std::string &name)
{
    static const auto catalog = components::Catalog::standard();
    return catalog.rooflines().byName(name);
}

/** Flat ceiling slot of a scalar binding, as the plans encode it. */
std::uint32_t
flatSlot(const platform::CeilingRef &binding,
         std::size_t compute_ceilings)
{
    return static_cast<std::uint32_t>(
        binding.kind == platform::CeilingKind::Compute
            ? binding.index
            : compute_ceilings + binding.index);
}

TEST(EvaluationPlan, MatchesScalarAttainableEverywhere)
{
    const auto algorithms = workload::annotatedAlgorithms();
    const char *platforms[] = {"Nvidia TX2", "Nvidia AGX",
                               "ARM Cortex-M4", "TX2-CPU + Navion"};
    const char *annotated[] = {"DroNet", "DroNet (scalar-only)",
                               "SPA package delivery"};

    Rng rng(42);
    for (const char *platform_name : platforms) {
        const platform::RooflinePlatform &machine =
            preset(platform_name);

        std::vector<platform::WorkloadProfile> profiles;
        profiles.push_back({}); // Unannotated: every ceiling.
        for (const char *algorithm_name : annotated) {
            profiles.push_back(workload::workloadProfile(
                algorithms.byName(algorithm_name), machine));
        }

        for (platform::WorkloadProfile profile : profiles) {
            profile.ai = units::OpsPerByte(1.0);
            const platform::EvaluationPlan plan(machine, profile);
            ASSERT_EQ(plan.operatingPointCount(),
                      machine.operatingPoints().size());

            // AI draws spanning memory-bound through compute-bound
            // regimes, plus the knee-adjacent values where tie rules
            // matter.
            double ai[67];
            std::size_t n = 0;
            for (; n < 64; ++n)
                ai[n] = rng.uniform(0.01, 80.0);
            ai[n++] = 22.3; // TX2 machine knee.
            ai[n++] = 1e-3;
            ai[n++] = 1e6;

            double attainable[67];
            std::uint32_t slot[67];
            for (std::size_t op = 0;
                 op < plan.operatingPointCount(); ++op) {
                plan.evaluateBlock(op, ai, n, attainable, slot);
                for (std::size_t i = 0; i < n; ++i) {
                    platform::WorkloadProfile sample = profile;
                    sample.ai = units::OpsPerByte(ai[i]);
                    const platform::AttainableBound scalar =
                        machine.attainable(sample, op);
                    EXPECT_EQ(attainable[i],
                              scalar.attainable.value())
                        << platform_name << " op " << op << " ai "
                        << ai[i];
                    ASSERT_TRUE(scalar.binding.attributed);
                    EXPECT_EQ(slot[i],
                              flatSlot(scalar.binding,
                                       machine.computeCeilings()
                                           .size()))
                        << platform_name << " op " << op << " ai "
                        << ai[i];
                }
            }
        }
    }
}

TEST(EvaluationPlan, RejectsBadSamplesWithTheScalarError)
{
    const platform::RooflinePlatform &tx2 = preset("Nvidia TX2");
    platform::WorkloadProfile profile;
    profile.ai = units::OpsPerByte(1.0);
    const platform::EvaluationPlan plan(tx2, profile);

    double ai[3] = {1.0, -2.0, 3.0};
    double attainable[3];
    std::uint32_t slot[3];
    EXPECT_FALSE(plan.tryEvaluateBlock(0, ai, 3, attainable, slot));
    EXPECT_THROW(plan.evaluateBlock(0, ai, 3, attainable, slot),
                 ModelError);
    // Out-of-range operating point fails like the scalar call.
    ai[1] = 2.0;
    EXPECT_THROW(plan.evaluateBlock(99, ai, 3, attainable, slot),
                 ModelError);
    EXPECT_NO_THROW(plan.evaluateBlock(0, ai, 3, attainable, slot));
}

TEST(StagePipelinePlan, MatchesScalarEvaluator)
{
    const workload::SpaPipeline pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    Rng rng(7);
    for (const char *platform_name :
         {"Nvidia TX2", "TX2-CPU + Navion"}) {
        const platform::RooflinePlatform &machine =
            preset(platform_name);
        const workload::StagePipelinePlan plan(pipeline, machine);
        const workload::StagePipelineEvaluator evaluator(pipeline,
                                                         machine);
        const std::size_t stages = plan.stageCount();
        const std::size_t compute_ceilings =
            plan.computeCeilingCount();

        workload::StagePipelinePlan::Scratch scratch;
        double ai_scale[64];
        double throughput[64];
        std::uint32_t bottleneck[64];
        for (std::size_t op = 0;
             op < machine.operatingPoints().size(); ++op) {
            for (const bool measured_first : {true, false}) {
                const std::size_t n = 61; // Partial block.
                for (std::size_t i = 0; i < n; ++i)
                    ai_scale[i] = std::exp(rng.normal(0.0, 0.4));

                std::vector<std::uint64_t> kinds(stages * 3, 0);
                plan.evaluateBlock(op, measured_first, ai_scale, n,
                                   throughput, bottleneck,
                                   kinds.data(), scratch);

                std::vector<std::uint64_t> expected_kinds(
                    stages * 3, 0);
                workload::PipelineBound bound;
                for (std::size_t i = 0; i < n; ++i) {
                    workload::StageEvalOptions options;
                    options.opIndex = op;
                    options.measuredFirst = measured_first;
                    options.aiScale = ai_scale[i];
                    evaluator.evaluateInto(options, bound);

                    EXPECT_EQ(throughput[i], bound.throughputHz)
                        << platform_name << " op " << op;
                    const platform::CeilingRef bottleneck_binding =
                        bound.bottleneckBinding();
                    const std::uint32_t expected_slot =
                        bottleneck_binding.attributed
                            ? flatSlot(bottleneck_binding,
                                       compute_ceilings)
                            : workload::StagePipelinePlan::
                                  measuredSlot;
                    EXPECT_EQ(bottleneck[i], expected_slot)
                        << platform_name << " op " << op;

                    for (std::size_t s = 0; s < stages; ++s) {
                        const workload::StageBound &stage =
                            bound.stages[s];
                        const std::size_t kind =
                            stage.binding.attributed
                                ? (stage.binding.kind ==
                                           platform::CeilingKind::
                                               Compute
                                       ? 0
                                       : 1)
                                : 2;
                        ++expected_kinds[s * 3 + kind];
                    }
                }
                EXPECT_EQ(kinds, expected_kinds)
                    << platform_name << " op " << op
                    << " measured_first " << measured_first;
            }
        }
    }
}

TEST(StagePipelinePlan, ExtremeScalesCrossTheFastIntervalExactly)
{
    // The plan's whole-block fast path covers an interval of AI
    // scales; sweep uniform-scale blocks across nine orders of
    // magnitude (plus mixed blocks) so both sides of every
    // bisected threshold — compute-bound, memory-bound, and the
    // handoff between them — are compared against the scalar
    // evaluator.
    const workload::SpaPipeline pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    for (const char *platform_name :
         {"Nvidia TX2", "TX2-CPU + Navion"}) {
        const platform::RooflinePlatform &machine =
            preset(platform_name);
        const workload::StagePipelinePlan plan(pipeline, machine);
        const workload::StagePipelineEvaluator evaluator(pipeline,
                                                         machine);
        const std::size_t stages = plan.stageCount();
        workload::StagePipelinePlan::Scratch scratch;
        workload::PipelineBound bound;

        std::vector<double> scales;
        for (double mag = 1e-4; mag <= 1e5; mag *= 10.0)
            for (double step : {1.0, 1.9, 3.7, 7.3})
                scales.push_back(mag * step);

        double ai_scale[64];
        double throughput[64];
        std::uint32_t slot[64];
        const auto compare = [&](std::size_t n, std::size_t op) {
            std::vector<std::uint64_t> kinds(stages * 3, 0);
            plan.evaluateBlock(op, false, ai_scale, n, throughput,
                               slot, kinds.data(), scratch);
            std::vector<std::uint64_t> expected(stages * 3, 0);
            for (std::size_t i = 0; i < n; ++i) {
                workload::StageEvalOptions options;
                options.opIndex = op;
                options.measuredFirst = false;
                options.aiScale = ai_scale[i];
                evaluator.evaluateInto(options, bound);
                EXPECT_EQ(throughput[i], bound.throughputHz)
                    << platform_name << " scale " << ai_scale[i];
                for (std::size_t s = 0; s < stages; ++s) {
                    const workload::StageBound &stage =
                        bound.stages[s];
                    const std::size_t kind =
                        stage.binding.attributed
                            ? (stage.binding.kind ==
                                       platform::CeilingKind::Compute
                                   ? 0
                                   : 1)
                            : 2;
                    ++expected[s * 3 + kind];
                }
            }
            EXPECT_EQ(kinds, expected) << platform_name;
        };

        for (std::size_t op = 0;
             op < machine.operatingPoints().size(); ++op) {
            // Uniform-scale blocks: whole block on one side.
            for (const double scale : scales) {
                for (std::size_t i = 0; i < 8; ++i)
                    ai_scale[i] = scale;
                compare(8, op);
            }
            // Mixed block: one out-of-interval sample must push
            // the whole block down the general path.
            for (std::size_t i = 0; i < 16; ++i)
                ai_scale[i] = 1.0 + 0.01 * static_cast<double>(i);
            ai_scale[11] = 1e-4;
            compare(16, op);
        }
    }
}

TEST(StagePipelinePlan, BadAiScaleFallsBackToTheScalarError)
{
    const workload::StagePipelinePlan plan(
        workload::SpaPipeline::mavbenchPackageDeliveryTx2(),
        preset("TX2-CPU + Navion"));
    workload::StagePipelinePlan::Scratch scratch;
    double ai_scale[3] = {1.0, 0.0, 1.0};
    double throughput[3];
    std::uint32_t bottleneck[3];
    std::uint64_t kinds[4 * 3] = {0};
    EXPECT_FALSE(plan.tryEvaluateBlock(0, false, ai_scale, 3,
                                       throughput, bottleneck, kinds,
                                       scratch));
    EXPECT_THROW(plan.evaluateBlock(0, false, ai_scale, 3,
                                    throughput, bottleneck, kinds,
                                    scratch),
                 ModelError);
}

TEST(F1Batch, KernelsMatchAnalyzeIntoBitForBit)
{
    Rng rng(11);
    constexpr std::size_t n = 64;
    double a_max[n], range[n], sensor[n], compute[n];
    core::F1Inputs inputs[n];
    for (std::size_t i = 0; i < n; ++i) {
        a_max[i] = rng.uniform(0.5, 30.0);
        range[i] = rng.uniform(0.5, 50.0);
        sensor[i] = rng.uniform(1.0, 300.0);
        compute[i] = rng.uniform(1.0, 300.0);
        inputs[i].aMax = units::MetersPerSecondSquared(a_max[i]);
        inputs[i].sensingRange = units::Meters(range[i]);
        inputs[i].sensorRate = units::Hertz(sensor[i]);
        inputs[i].computeRate = units::Hertz(compute[i]);
        inputs[i].controlRate = units::Hertz(200.0);
        inputs[i].kneeFraction = 0.98;
    }

    double v_safe[n], knee[n], roof[n];
    std::uint8_t bound[n];
    ASSERT_TRUE(core::analyzeBlock(a_max, range, sensor, compute,
                                   200.0, 0.98, n, v_safe, knee,
                                   roof, bound));
    double v_only[n];

    core::F1Analysis scalar;
    for (std::size_t i = 0; i < n; ++i) {
        core::F1Model::analyzeInto(inputs[i], scalar);
        EXPECT_EQ(v_safe[i], scalar.safeVelocity.value());
        EXPECT_EQ(knee[i], scalar.kneeThroughput.value());
        EXPECT_EQ(roof[i], scalar.roofVelocity.value());
        EXPECT_EQ(bound[i],
                  static_cast<std::uint8_t>(scalar.bound));
    }

    // Constant-physics variant against the same scalars.
    for (std::size_t i = 0; i < n; ++i) {
        inputs[i].aMax = units::MetersPerSecondSquared(6.0);
        inputs[i].sensingRange = units::Meters(4.5);
    }
    ASSERT_TRUE(core::analyzeVSafeBlock(6.0, 4.5, sensor, compute,
                                        200.0, n, v_only));
    for (std::size_t i = 0; i < n; ++i) {
        core::F1Model::analyzeInto(inputs[i], scalar);
        EXPECT_EQ(v_only[i], scalar.safeVelocity.value());
    }

    // Invalid samples flip the flag instead of throwing.
    sensor[13] = 0.0;
    EXPECT_FALSE(core::analyzeBlock(a_max, range, sensor, compute,
                                    200.0, 0.98, n, v_safe, knee,
                                    roof, bound));
    EXPECT_FALSE(core::analyzeVSafeBlock(6.0, 4.5, sensor, compute,
                                         200.0, n, v_only));
}

/** Exact equality over every field the samplers report. */
void
expectIdentical(const sim::UncertaintyResult &a,
                const sim::UncertaintyResult &b)
{
    EXPECT_EQ(a.samples, b.samples);
    const auto expect_dist = [](const sim::Distribution &x,
                                const sim::Distribution &y) {
        EXPECT_EQ(x.mean, y.mean);
        EXPECT_EQ(x.stddev, y.stddev);
        EXPECT_EQ(x.p5, y.p5);
        EXPECT_EQ(x.p50, y.p50);
        EXPECT_EQ(x.p95, y.p95);
    };
    expect_dist(a.safeVelocity, b.safeVelocity);
    expect_dist(a.kneeThroughput, b.kneeThroughput);
    expect_dist(a.roofVelocity, b.roofVelocity);
    EXPECT_EQ(a.probComputeBound, b.probComputeBound);
    EXPECT_EQ(a.probSensorBound, b.probSensorBound);
    EXPECT_EQ(a.probControlBound, b.probControlBound);
    EXPECT_EQ(a.probPhysicsBound, b.probPhysicsBound);
    EXPECT_EQ(a.probComputeCeilingBinds, b.probComputeCeilingBinds);
    EXPECT_EQ(a.probMemoryCeilingBinds, b.probMemoryCeilingBinds);
    ASSERT_EQ(a.stageBindings.size(), b.stageBindings.size());
    for (std::size_t s = 0; s < a.stageBindings.size(); ++s) {
        EXPECT_EQ(a.stageBindings[s].stage, b.stageBindings[s].stage);
        EXPECT_EQ(a.stageBindings[s].probComputeBound,
                  b.stageBindings[s].probComputeBound);
        EXPECT_EQ(a.stageBindings[s].probMemoryBound,
                  b.stageBindings[s].probMemoryBound);
        EXPECT_EQ(a.stageBindings[s].probMeasured,
                  b.stageBindings[s].probMeasured);
    }
}

/** The three Monte-Carlo evaluation paths under stress. */
std::vector<sim::UncertaintySpec>
monteCarloSpecs()
{
    std::vector<sim::UncertaintySpec> specs;

    sim::UncertaintySpec legacy;
    legacy.nominal = studies::pelicanInputs(units::Hertz(55.0));
    specs.push_back(legacy);

    // Flat platform path with the AI spread straddling the machine
    // knee, so the binding ceiling varies sample to sample.
    sim::UncertaintySpec flat;
    flat.nominal = studies::pelicanInputs(units::Hertz(55.0));
    flat.platform = preset("Nvidia TX2");
    flat.profile.ai = units::OpsPerByte(22.3);
    flat.workPerFrameGop = 0.04;
    flat.aiRelStd = 0.4;
    specs.push_back(flat);

    // Per-stage pipeline path on the accelerator family.
    sim::UncertaintySpec staged;
    staged.nominal = studies::pelicanInputs(units::Hertz(20.0));
    staged.platform = preset("TX2-CPU + Navion");
    staged.pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    staged.aiRelStd = 0.10;
    staged.computeRelStd = 0.05;
    specs.push_back(staged);

    // Every spread active, sensorRelStd included: five normals per
    // sample, so a sub-batch of odd length draws an odd count and
    // leaves a spare in the stream.
    sim::UncertaintySpec every = flat;
    every.sensorRelStd = 0.2;
    specs.push_back(every);

    // Every spread 0: no normals at all (normalBlock(z, 0)), and
    // every factor column is the nominal itself.
    sim::UncertaintySpec none = staged;
    none.aMaxRelStd = 0.0;
    none.rangeRelStd = 0.0;
    none.computeRelStd = 0.0;
    none.aiRelStd = 0.0;
    specs.push_back(none);

    return specs;
}

TEST(MonteCarloBatch, RunMatchesReferenceAtEveryThreadCount)
{
    exec::ThreadPool pool(8);
    // An odd count exercises partial kernel blocks and a partial
    // trailing RNG block.
    const std::size_t count = 5003;
    for (const sim::UncertaintySpec &spec : monteCarloSpecs()) {
        const sim::MonteCarloAnalyzer analyzer(spec);
        const sim::UncertaintyResult reference =
            analyzer.runReference(count, 9);
        for (const std::size_t threads : {1u, 2u, 8u}) {
            exec::ParallelOptions options;
            options.pool = &pool;
            options.maxThreads = threads;
            expectIdentical(reference,
                            analyzer.run(count, 9, options));
        }
    }
}

TEST(MonteCarloBatch, RunMatchesReferenceAbovePilotSize)
{
    // Above 4 pilots of 16 blocks, run() folds through windows set
    // by a pilot pass, while runReference() keeps every sample; the
    // partial trailing block and sub-batch are kept.
    exec::ThreadPool pool(8);
    const std::size_t count = 4 * 16 * 2048 + 3 * 2048 + 5;
    for (const sim::UncertaintySpec &spec : monteCarloSpecs()) {
        const sim::MonteCarloAnalyzer analyzer(spec);
        const sim::UncertaintyResult reference =
            analyzer.runReference(count, 11);
        for (const std::size_t threads : {1u, 2u, 8u}) {
            exec::ParallelOptions options;
            options.pool = &pool;
            options.maxThreads = threads;
            expectIdentical(reference,
                            analyzer.run(count, 11, options));
        }
    }
}

TEST(MonteCarloBatch, ZeroSpreadsGiveTheNominalAnalysis)
{
    // A metamorphic oracle independent of the batch/scalar twins:
    // with every relative std at 0, each sample is the nominal
    // analysis, so every quantile is its value and its bound has
    // probability 1. The mean and stddev are only within rounding
    // of it: a block's moments are a sequential sum over its
    // samples divided by their count, and n equal values need not
    // sum to n times the value exactly (e.g. the Pelican at 55 Hz
    // gives a v_safe stddev of ~5e-14 m/s over 5003 samples).
    sim::UncertaintySpec legacy;
    legacy.nominal = studies::pelicanInputs(units::Hertz(20.0));
    sim::UncertaintySpec flat = legacy;
    flat.nominal = studies::pelicanInputs(units::Hertz(55.0));
    flat.platform = preset("Nvidia TX2");
    flat.profile.ai = units::OpsPerByte(22.3);
    flat.workPerFrameGop = 0.04;
    for (sim::UncertaintySpec spec : {legacy, flat}) {
        spec.aMaxRelStd = 0.0;
        spec.rangeRelStd = 0.0;
        spec.computeRelStd = 0.0;
        spec.sensorRelStd = 0.0;
        spec.aiRelStd = 0.0;
        core::F1Inputs inputs = spec.nominal;
        if (spec.platform) {
            inputs.computeRate = units::Hertz(
                spec.platform->attainable(spec.profile, spec.opIndex)
                    .attainable.value() /
                spec.workPerFrameGop);
        }
        const core::F1Analysis nominal = core::F1Model(inputs).analyze();
        const sim::MonteCarloAnalyzer analyzer(spec);
        // Below and above the pilot threshold.
        for (const std::size_t count :
             {5003u, 4u * 16u * 2048u + 3u * 2048u + 5u}) {
            for (const sim::UncertaintyResult &result :
                 {analyzer.run(count, 7), analyzer.runReference(count, 7)}) {
                const auto expect_nominal = [](const sim::Distribution &d,
                                               double value) {
                    EXPECT_EQ(d.p5, value);
                    EXPECT_EQ(d.p50, value);
                    EXPECT_EQ(d.p95, value);
                    EXPECT_NEAR(d.mean, value, 1e-12 * value);
                    EXPECT_LE(d.stddev, 1e-12 * value);
                };
                expect_nominal(result.safeVelocity,
                               nominal.safeVelocity.value());
                expect_nominal(result.kneeThroughput,
                               nominal.kneeThroughput.value());
                expect_nominal(result.roofVelocity,
                               nominal.roofVelocity.value());
                using core::BoundType;
                const auto prob = [&](BoundType bound) {
                    return nominal.bound == bound ? 1.0 : 0.0;
                };
                EXPECT_EQ(result.probComputeBound,
                          prob(BoundType::ComputeBound));
                EXPECT_EQ(result.probSensorBound,
                          prob(BoundType::SensorBound));
                EXPECT_EQ(result.probControlBound,
                          prob(BoundType::ControlBound));
                EXPECT_EQ(result.probPhysicsBound,
                          prob(BoundType::PhysicsBound));
            }
        }
    }
}

TEST(MonteCarloBatch, FirstErrorMatchesTheReference)
{
    // A subnormal nominal sensing range passes construction, and a
    // perturbation factor below 1/16 rounds it to exactly 0, which
    // the F-1 model rejects. With this seed the first such sample is
    // 209: in block 0, partway through its fourth kernel sub-batch,
    // so run() must rescan that sub-batch from its saved Rng and
    // throw the scalar loop's error there. Every spread is active:
    // five normals per sample.
    sim::UncertaintySpec spec = monteCarloSpecs()[3];
    spec.nominal.sensingRange = units::Meters(8 * 4.9e-324);
    spec.rangeRelStd = 1.0;
    const sim::MonteCarloAnalyzer analyzer(spec);
    const std::uint64_t seed = 1;
    constexpr std::size_t first_bad = 209;

    const auto error_of = [](const auto &call) -> std::string {
        try {
            call();
        } catch (const ModelError &e) {
            return e.what();
        }
        return "";
    };
    // The samples before it commit, identically on both paths. Their
    // knee throughput is +inf, so its stddev and quantiles are NaN:
    // compare bits.
    const auto bits = [](const sim::Distribution &d) {
        return std::array<std::uint64_t, 5>{
            std::bit_cast<std::uint64_t>(d.mean),
            std::bit_cast<std::uint64_t>(d.stddev),
            std::bit_cast<std::uint64_t>(d.p5),
            std::bit_cast<std::uint64_t>(d.p50),
            std::bit_cast<std::uint64_t>(d.p95)};
    };
    const sim::UncertaintyResult reference =
        analyzer.runReference(first_bad, seed);
    const sim::UncertaintyResult batched = analyzer.run(first_bad, seed);
    EXPECT_EQ(bits(reference.safeVelocity), bits(batched.safeVelocity));
    EXPECT_EQ(bits(reference.kneeThroughput),
              bits(batched.kneeThroughput));
    EXPECT_EQ(bits(reference.roofVelocity), bits(batched.roofVelocity));
    EXPECT_EQ(reference.probPhysicsBound, batched.probPhysicsBound);
    EXPECT_EQ(reference.probComputeCeilingBinds,
              batched.probComputeCeilingBinds);
    const std::string expected = error_of(
        [&] { analyzer.runReference(first_bad + 1, seed); });
    ASSERT_EQ(expected, "sensing_range must be positive, got 0.000000");

    exec::ThreadPool pool(8);
    // One block (2047 is partial, with an odd last sub-batch) so the
    // first error is this sample's at every thread count.
    for (const std::size_t count : {first_bad + 1, std::size_t{2047}}) {
        EXPECT_EQ(error_of([&] { analyzer.runReference(count, seed); }),
                  expected);
        for (const std::size_t threads : {1u, 2u, 8u}) {
            exec::ParallelOptions options;
            options.pool = &pool;
            options.maxThreads = threads;
            EXPECT_EQ(error_of([&] { analyzer.run(count, seed, options); }),
                      expected)
                << count << " samples, " << threads << " threads";
        }
    }
}

/** Exact equality over every field the campaign reports. */
void
expectIdentical(const fault::CampaignResult &a,
                const fault::CampaignResult &b)
{
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.abortProbability, b.abortProbability);
    EXPECT_EQ(a.faultActivationRate, b.faultActivationRate);
    EXPECT_EQ(a.safeVelocity.mean, b.safeVelocity.mean);
    EXPECT_EQ(a.safeVelocity.stddev, b.safeVelocity.stddev);
    EXPECT_EQ(a.safeVelocity.p5, b.safeVelocity.p5);
    EXPECT_EQ(a.safeVelocity.p50, b.safeVelocity.p50);
    EXPECT_EQ(a.safeVelocity.p95, b.safeVelocity.p95);
    EXPECT_EQ(a.probComputeCeilingBinds, b.probComputeCeilingBinds);
    EXPECT_EQ(a.probMemoryCeilingBinds, b.probMemoryCeilingBinds);
    ASSERT_EQ(a.stageBindings.size(), b.stageBindings.size());
    for (std::size_t s = 0; s < a.stageBindings.size(); ++s) {
        EXPECT_EQ(a.stageBindings[s].probComputeBound,
                  b.stageBindings[s].probComputeBound);
        EXPECT_EQ(a.stageBindings[s].probMemoryBound,
                  b.stageBindings[s].probMemoryBound);
        EXPECT_EQ(a.stageBindings[s].probMeasured,
                  b.stageBindings[s].probMeasured);
    }
}

/** A TX2 + DroNet campaign spec loaded with one standard suite. */
fault::CampaignSpec
tx2Campaign(const std::string &suite)
{
    const auto &catalog = components::Catalog::standard();
    const platform::RooflinePlatform &tx2 = preset("Nvidia TX2");
    const auto algorithms = workload::annotatedAlgorithms();
    const auto &dronet = algorithms.byName("DroNet");

    fault::CampaignSpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
    spec.platform = tx2;
    spec.profile = workload::workloadProfile(dronet, tx2);
    spec.workPerFrameGop = dronet.workPerFrameGop();
    spec.faults = fault::findFaultSuite(suite).faults;
    (void)catalog;
    return spec;
}

/** Campaign specs covering every layer combination. */
std::vector<fault::CampaignSpec>
campaignSpecs()
{
    std::vector<fault::CampaignSpec> specs;
    for (const char *suite : {"ceiling-derate", "thermal-throttle",
                              "sensor-dropout", "mixed"})
        specs.push_back(tx2Campaign(suite));

    // Pipeline-only.
    fault::CampaignSpec staged;
    staged.nominal = studies::pelicanInputs(units::Hertz(20.0));
    staged.pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    staged.redundancy = pipeline::RedundancyScheme::Dual;
    staged.faults = fault::findFaultSuite("stage-failure").faults;
    specs.push_back(staged);

    // Combined platform + pipeline + sensor: every layer at once,
    // exercising the per-stage tables of every layer.
    fault::CampaignSpec combined = staged;
    const auto algorithms = workload::annotatedAlgorithms();
    const auto &spa = algorithms.byName("SPA package delivery");
    const platform::RooflinePlatform &tx2 = preset("Nvidia TX2");
    combined.platform = tx2;
    combined.profile = workload::workloadProfile(spa, tx2);
    combined.workPerFrameGop = spa.workPerFrameGop();
    for (const fault::FaultSpec &fault :
         fault::findFaultSuite("mixed").faults)
        combined.faults.push_back(fault);
    specs.push_back(combined);

    return specs;
}

TEST(CampaignBatch, RunMatchesReferenceAtEveryThreadCount)
{
    exec::ThreadPool pool(8);
    const std::size_t count = 4111;
    for (const fault::CampaignSpec &spec : campaignSpecs()) {
        const fault::FaultCampaign campaign(spec);
        const fault::CampaignResult reference =
            campaign.runReference(count, 13);
        for (const std::size_t threads : {1u, 2u, 8u}) {
            exec::ParallelOptions options;
            options.pool = &pool;
            options.maxThreads = threads;
            expectIdentical(reference,
                            campaign.run(count, 13, options));
        }
    }
}

TEST(CampaignBatch, DegradationCurveRidesTheBatchedRuns)
{
    const fault::FaultCampaign campaign(tx2Campaign("mixed"));
    const auto curve = campaign.degradationCurve(4, 600, 17);
    ASSERT_EQ(curve.size(), 4u);

    // Each level is run() on a severity-scaled spec; pin it against
    // the reference oracle of the same scaled campaign.
    for (std::size_t level = 0; level < curve.size(); ++level) {
        fault::CampaignSpec scaled = tx2Campaign("mixed");
        scaled.probabilityScale =
            static_cast<double>(level) /
            static_cast<double>(curve.size() - 1);
        const fault::FaultCampaign scaled_campaign(scaled);
        const fault::CampaignResult reference =
            scaled_campaign.runReference(600, 17);
        EXPECT_EQ(curve[level].result.safeVelocity.mean,
                  reference.safeVelocity.mean);
        EXPECT_EQ(curve[level].result.safeVelocity.p5,
                  reference.safeVelocity.p5);
        EXPECT_EQ(curve[level].result.safeVelocity.p95,
                  reference.safeVelocity.p95);
        EXPECT_EQ(curve[level].result.abortProbability,
                  reference.abortProbability);
    }
}

TEST(Kernels, BlockEvaluationIsAllocationFree)
{
    const platform::RooflinePlatform &tx2 = preset("Nvidia TX2");
    platform::WorkloadProfile profile;
    profile.ai = units::OpsPerByte(1.0);
    const platform::EvaluationPlan plan(tx2, profile);
    const workload::StagePipelinePlan stage_plan(
        workload::SpaPipeline::mavbenchPackageDeliveryTx2(),
        preset("TX2-CPU + Navion"));

    constexpr std::size_t n = 64;
    double ai[n], ai_scale[n], attainable[n], throughput[n];
    double sensor[n], compute[n], v_safe[n], knee[n], roof[n];
    std::uint32_t slot[n], bottleneck[n];
    std::uint8_t bound[n];
    std::uint64_t kinds[4 * 3] = {0};
    workload::StagePipelinePlan::Scratch scratch;
    for (std::size_t i = 0; i < n; ++i) {
        ai[i] = 1.0 + 0.25 * static_cast<double>(i);
        ai_scale[i] = 0.5 + 0.01 * static_cast<double>(i);
        sensor[i] = 30.0 + static_cast<double>(i);
        compute[i] = 20.0 + static_cast<double>(i);
    }

    // Warm-up (first call may fault in lazily-initialized state).
    plan.evaluateBlock(0, ai, n, attainable, slot);
    stage_plan.evaluateBlock(0, false, ai_scale, n, throughput,
                             bottleneck, kinds, scratch);

    const std::size_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    for (int iter = 0; iter < 16; ++iter) {
        plan.evaluateBlock(0, ai, n, attainable, slot);
        stage_plan.evaluateBlock(0, false, ai_scale, n, throughput,
                                 bottleneck, kinds, scratch);
        core::analyzeBlock(ai, ai_scale, sensor, compute, 200.0,
                           0.98, n, v_safe, knee, roof, bound);
        core::analyzeVSafeBlock(6.0, 4.5, sensor, compute, 200.0, n,
                                v_safe);
    }
    const std::size_t after =
        g_heap_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "block kernels must not allocate on the hot path";
}

TEST(Exec, ParallelForSlotsCoversEveryIndexWithBoundedSlots)
{
    exec::ThreadPool pool(4);
    exec::ParallelOptions options;
    options.pool = &pool;
    options.grain = 8;
    const std::size_t slots = exec::maxSlots(options);
    EXPECT_GE(slots, 1u);
    EXPECT_LE(slots, 4u);

    constexpr std::size_t count = 1000;
    std::vector<std::atomic<int>> visits(count);
    std::mutex mutex;
    std::set<std::size_t> seen_slots;
    exec::parallelForSlots(
        count,
        [&](std::size_t slot, std::size_t begin, std::size_t end) {
            ASSERT_LT(slot, slots);
            {
                const std::lock_guard<std::mutex> lock(mutex);
                seen_slots.insert(slot);
            }
            for (std::size_t i = begin; i < end; ++i)
                visits[i].fetch_add(1, std::memory_order_relaxed);
        },
        options);
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(visits[i].load(), 1) << i;
    EXPECT_GE(seen_slots.size(), 1u);

    // maxThreads caps the slot space.
    options.maxThreads = 1;
    EXPECT_EQ(exec::maxSlots(options), 1u);
    exec::parallelForSlots(
        64,
        [&](std::size_t slot, std::size_t, std::size_t) {
            EXPECT_EQ(slot, 0u);
        },
        options);
}

TEST(Exec, SuggestedGrainIsThreadIndependentAndBounded)
{
    // Pure function of (count, cost): no thread-count input at all,
    // so chunk geometry can never depend on the machine.
    const std::size_t g = exec::suggestedGrain(1u << 20, 100.0);
    EXPECT_EQ(g, exec::suggestedGrain(1u << 20, 100.0));
    EXPECT_GE(g, 1u);

    // Cheap work gets big chunks, expensive work small ones.
    EXPECT_GT(exec::suggestedGrain(1u << 20, 1.0),
              exec::suggestedGrain(1u << 20, 10000.0));
    // Never exceeds the loop itself.
    EXPECT_LE(exec::suggestedGrain(10, 1.0), 10u);
    EXPECT_GE(exec::suggestedGrain(0, 1.0), 1u);
}

TEST(DseBatch, SweepMatchesPerPointAnalyze)
{
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::standardAlgorithms();
    core::UavConfig::Builder prototype("dse");
    prototype
        .airframe(catalog.airframes().byName("AscTec Pelican"))
        .sensor(catalog.sensors().byName("RGB-D 60FPS (4.5m)"));
    const skyline::DesignSpaceExplorer dse(prototype);

    const std::vector<components::ComputePlatform> computes = {
        catalog.computes().byName("Nvidia TX2"),
        catalog.computes().byName("Intel NCS"),
        catalog.computes().byName("Ras-Pi4"),
        catalog.computes().byName("Nvidia AGX")};
    const std::vector<workload::AutonomyAlgorithm> algos = {
        algorithms.byName("DroNet"),
        algorithms.byName("TrailNet")};

    const auto points = dse.sweep(computes, algos);
    ASSERT_EQ(points.size(), computes.size() * algos.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &point = points[i];
        if (!point.feasible) {
            EXPECT_FALSE(point.infeasibleReason.empty());
            continue;
        }
        // Rebuild the config and compare the batched analysis with
        // the scalar per-point call, field for field.
        core::UavConfig::Builder builder = prototype;
        const core::UavConfig config =
            builder.compute(computes[i / algos.size()])
                .algorithm(algos[i % algos.size()])
                .build();
        const core::F1Analysis scalar = config.f1Model().analyze();
        EXPECT_EQ(point.analysis.safeVelocity.value(),
                  scalar.safeVelocity.value());
        EXPECT_EQ(point.analysis.kneeThroughput.value(),
                  scalar.kneeThroughput.value());
        EXPECT_EQ(point.analysis.roofVelocity.value(),
                  scalar.roofVelocity.value());
        EXPECT_EQ(point.analysis.bound, scalar.bound);
        EXPECT_EQ(point.analysis.verdict, scalar.verdict);
        EXPECT_EQ(point.safeVelocity, scalar.safeVelocity.value());
    }
}

} // namespace
