/**
 * @file
 * Unit tests for the flight simulator: vehicle integration, the
 * dash-and-stop protocol, the validation harness, the
 * Monte-Carlo per-ceiling binding tallies, and the forEachBlock
 * block-sampling contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "components/catalog.hh"
#include "exec/thread_pool.hh"
#include "sim/flight_sim.hh"
#include "sim/monte_carlo.hh"
#include "sim/table1.hh"
#include "sim/validation.hh"
#include "sim/vehicle.hh"
#include "studies/presets.hh"
#include "support/errors.hh"
#include "support/rng.hh"

namespace {

using namespace uavf1;
using namespace uavf1::units;
using namespace uavf1::units::literals;
using namespace uavf1::sim;

/** A light test vehicle: 1 kg, T/W 1.5, no drag, no lag. */
VehicleParams
idealVehicle()
{
    VehicleParams params;
    params.mass = 1.0_kg;
    params.usableThrust = Newtons(1.5 * 9.80665);
    params.drag = physics::DragModel::none();
    params.actuationLag = Seconds(0.0);
    params.brakeMargin = 1.0;
    return params;
}

TEST(Vehicle, AvailableAccelerationVerticalExcess)
{
    const VehicleModel vehicle(idealVehicle());
    // twr 1.5 -> a = 0.5 g.
    EXPECT_NEAR(vehicle.availableAcceleration().value(),
                0.5 * 9.80665, 1e-9);
}

TEST(Vehicle, CannotHoverThrows)
{
    VehicleParams params = idealVehicle();
    params.usableThrust = Newtons(9.0);
    EXPECT_THROW(VehicleModel{params}, InfeasibleError);
}

TEST(Vehicle, StepIntegratesConstantAcceleration)
{
    VehicleModel vehicle(idealVehicle());
    vehicle.reset();
    const double a = vehicle.availableAcceleration().value();
    // 1 s of full command at dt = 1 ms.
    for (int i = 0; i < 1000; ++i)
        vehicle.step(Seconds(0.001), a);
    // v = a t; x ~ a t^2 / 2 (semi-implicit Euler is close).
    EXPECT_NEAR(vehicle.state().velocity, a, 1e-9);
    EXPECT_NEAR(vehicle.state().position, 0.5 * a, 0.01);
}

TEST(Vehicle, CommandIsClippedToAvailable)
{
    VehicleModel vehicle(idealVehicle());
    vehicle.reset();
    vehicle.step(Seconds(0.001), 1e6);
    EXPECT_NEAR(vehicle.state().acceleration,
                vehicle.availableAcceleration().value(), 1e-9);
    vehicle.reset();
    vehicle.step(Seconds(0.001), -1e6);
    EXPECT_NEAR(vehicle.state().acceleration,
                -vehicle.availableAcceleration().value(), 1e-9);
}

TEST(Vehicle, ActuationLagDelaysResponse)
{
    VehicleParams lagged = idealVehicle();
    lagged.actuationLag = Seconds(0.2);
    VehicleModel vehicle(lagged);
    vehicle.reset();
    vehicle.step(Seconds(0.001), 1.0);
    // After one millisecond the realized acceleration is far from
    // the command.
    EXPECT_LT(vehicle.state().acceleration, 0.1);
    // After many time constants it converges.
    for (int i = 0; i < 5000; ++i)
        vehicle.step(Seconds(0.001), 1.0);
    EXPECT_NEAR(vehicle.state().acceleration, 1.0, 0.02);
}

TEST(Vehicle, DragOpposesMotion)
{
    VehicleParams draggy = idealVehicle();
    draggy.drag = physics::DragModel(1.0, 0.1);
    VehicleModel vehicle(draggy);
    vehicle.reset();
    // Coast at 5 m/s with zero command: drag must decelerate.
    for (int i = 0; i < 100; ++i)
        vehicle.step(Seconds(0.001), 0.0);
    EXPECT_DOUBLE_EQ(vehicle.state().velocity, 0.0);

    // Manually inject speed by resetting state through steps.
    VehicleModel coaster(draggy);
    coaster.reset();
    const double a = coaster.availableAcceleration().value();
    while (coaster.state().velocity < 3.0)
        coaster.step(Seconds(0.001), a);
    const double v0 = coaster.state().velocity;
    for (int i = 0; i < 1000; ++i)
        coaster.step(Seconds(0.001), 0.0);
    EXPECT_LT(coaster.state().velocity, v0);
}

TEST(FlightSim, SlowCommandStopsSafely)
{
    const VehicleModel vehicle(idealVehicle());
    const FlightSimulator simulator(vehicle);
    StopScenario scenario;
    scenario.commandedVelocity = 1.0_mps; // Far below safe.
    Rng rng(1);
    const TrialResult trial =
        simulator.run(scenario, NoiseParams::none(), rng);
    EXPECT_FALSE(trial.infraction);
    EXPECT_LT(trial.stopMargin, 0.0);
    EXPECT_GT(trial.brakeTime, 0.0);
    // PI velocity tracking overshoots a little; ~10% is expected.
    EXPECT_NEAR(trial.peakVelocity, 1.0, 0.15);
}

TEST(FlightSim, ExcessiveCommandCollides)
{
    const VehicleModel vehicle(idealVehicle());
    const FlightSimulator simulator(vehicle);
    // v_safe at 10 Hz with a ~ 4.9, d = 3 is ~5 m/s; 7 m/s must
    // infract.
    StopScenario scenario;
    scenario.commandedVelocity = 7.0_mps;
    Rng rng(1);
    const TrialResult trial =
        simulator.run(scenario, NoiseParams::none(), rng);
    EXPECT_TRUE(trial.infraction);
    EXPECT_GT(trial.stopMargin, 0.0);
}

TEST(FlightSim, DeterministicWithoutNoise)
{
    const VehicleModel vehicle(idealVehicle());
    const FlightSimulator simulator(vehicle);
    StopScenario scenario;
    scenario.commandedVelocity = 3.0_mps;
    Rng rng_a(1);
    Rng rng_b(2); // Different seed must not matter without noise.
    const TrialResult a =
        simulator.run(scenario, NoiseParams::none(), rng_a);
    const TrialResult b =
        simulator.run(scenario, NoiseParams::none(), rng_b);
    EXPECT_DOUBLE_EQ(a.stopMargin, b.stopMargin);
    EXPECT_DOUBLE_EQ(a.peakVelocity, b.peakVelocity);
}

TEST(FlightSim, TrajectoryRecordingCoversTheDash)
{
    const VehicleModel vehicle(idealVehicle());
    const FlightSimulator simulator(vehicle);
    StopScenario scenario;
    scenario.commandedVelocity = 2.0_mps;
    Rng rng(1);
    const TrialResult trial =
        simulator.run(scenario, NoiseParams::none(), rng, true);
    ASSERT_GT(trial.trajectory.size(), 100u);
    // Time and position are non-decreasing.
    for (std::size_t i = 1; i < trial.trajectory.size(); ++i) {
        EXPECT_GE(trial.trajectory[i].time,
                  trial.trajectory[i - 1].time);
        EXPECT_GE(trial.trajectory[i].position,
                  trial.trajectory[i - 1].position - 1e-9);
    }
    // The dash ends where the vehicle stopped.
    EXPECT_NEAR(trial.trajectory.back().position,
                scenario.runUp.value() +
                    scenario.obstacleDistance.value() +
                    trial.stopMargin,
                1e-6);
}

TEST(FlightSim, InfractionMonotoneInCommandedVelocity)
{
    const VehicleModel vehicle(idealVehicle());
    const FlightSimulator simulator(vehicle);
    bool seen_infraction = false;
    for (double v = 1.0; v <= 8.0; v += 0.5) {
        StopScenario scenario;
        scenario.commandedVelocity = MetersPerSecond(v);
        Rng rng(1);
        const TrialResult trial =
            simulator.run(scenario, NoiseParams::none(), rng);
        if (seen_infraction) {
            EXPECT_TRUE(trial.infraction)
                << "safe again at v = " << v;
        }
        seen_infraction = seen_infraction || trial.infraction;
    }
    EXPECT_TRUE(seen_infraction);
}

TEST(Validation, PredictionMatchesSafetyModel)
{
    ValidationCase vcase;
    vcase.name = "test";
    vcase.vehicle = idealVehicle();
    const double predicted =
        ValidationHarness::predictedSafeVelocity(vcase);
    // a = 0.5 g, d = 3 m, T = 0.1 s.
    const core::SafetyModel safety(
        MetersPerSecondSquared(0.5 * 9.80665), Meters(3.0));
    EXPECT_NEAR(predicted,
                safety.safeVelocity(Seconds(0.1)).value(), 1e-12);
}

TEST(Validation, ObservedIsBelowPredictionWithRealism)
{
    // With lag + noise, the simulated flight must be slower than
    // the optimistic model — the paper's central observation.
    ValidationCase vcase;
    vcase.name = "realism";
    vcase.vehicle = idealVehicle();
    vcase.vehicle.actuationLag = Seconds(0.15);
    vcase.vehicle.drag = physics::DragModel(1.1, 0.022);
    vcase.vehicle.brakeMargin = 0.95;
    vcase.seed = 7;
    const ValidationResult result =
        ValidationHarness::validate(vcase);
    EXPECT_GT(result.observed, 0.0);
    EXPECT_GT(result.predicted, result.observed);
    EXPECT_GT(result.errorPercent, 0.0);
    EXPECT_LT(result.errorPercent, 25.0);
    EXPECT_FALSE(result.sweep.empty());
}

TEST(Validation, SweepStepsAreUniformAndCoverTheRange)
{
    // The set-point loop indexes by integer step; accumulating
    // `v += resolution` drifted and could skip or duplicate the
    // final set-point for drift-prone resolutions like 0.07.
    ValidationCase vcase;
    vcase.name = "stepping";
    vcase.vehicle = idealVehicle();
    vcase.trialsPerSetpoint = 1;
    vcase.sweepResolution = 0.07;
    const ValidationResult result =
        ValidationHarness::validate(vcase);

    const double v_lo =
        std::max(vcase.sweepResolution, 0.4 * result.predicted);
    const double v_hi = 1.3 * result.predicted;
    ASSERT_FALSE(result.sweep.empty());
    for (std::size_t i = 0; i < result.sweep.size(); ++i) {
        EXPECT_NEAR(result.sweep[i].velocity,
                    v_lo + i * vcase.sweepResolution, 1e-12);
    }
    // The last set-point sits within one resolution below v_hi —
    // neither past the ceiling nor short of it by a full step.
    const double last = result.sweep.back().velocity;
    EXPECT_LE(last, v_hi + 1e-9);
    EXPECT_GT(last + vcase.sweepResolution, v_hi);
}

TEST(Validation, Table1CasesAreWellFormed)
{
    const auto cases = table1ValidationCases();
    ASSERT_EQ(cases.size(), 4u);
    EXPECT_EQ(cases[0].name, "UAV-A");
    EXPECT_EQ(cases[3].name, "UAV-D");
    // Table I masses: 1620/1830/1670/1720 g.
    EXPECT_NEAR(cases[0].vehicle.mass.value(), 1.620, 1e-9);
    EXPECT_NEAR(cases[1].vehicle.mass.value(), 1.830, 1e-9);
    EXPECT_NEAR(cases[2].vehicle.mass.value(), 1.670, 1e-9);
    EXPECT_NEAR(cases[3].vehicle.mass.value(), 1.720, 1e-9);
    // Protocol: 3 m obstacle, 3 m sensing, 10 Hz loop, 5 trials.
    for (const auto &vcase : cases) {
        EXPECT_DOUBLE_EQ(vcase.scenario.obstacleDistance.value(),
                         3.0);
        EXPECT_DOUBLE_EQ(vcase.scenario.sensingRange.value(), 3.0);
        EXPECT_DOUBLE_EQ(vcase.scenario.actionRate.value(), 10.0);
        EXPECT_EQ(vcase.trialsPerSetpoint, 5);
    }
    EXPECT_EQ(table1PaperErrorPercent().size(), 4u);
    EXPECT_THROW(table1TakeoffMass('E'), ModelError);
}

TEST(Validation, Table1PredictionOrderingMatchesPaper)
{
    // Paper ordering: A fastest, then C, then D, then B slowest.
    const auto cases = table1ValidationCases();
    const double v_a =
        ValidationHarness::predictedSafeVelocity(cases[0]);
    const double v_b =
        ValidationHarness::predictedSafeVelocity(cases[1]);
    const double v_c =
        ValidationHarness::predictedSafeVelocity(cases[2]);
    const double v_d =
        ValidationHarness::predictedSafeVelocity(cases[3]);
    EXPECT_GT(v_a, v_c);
    EXPECT_GT(v_c, v_d);
    EXPECT_GT(v_d, v_b);
}

TEST(Validation, RecordTrajectoryUsesCommandedVelocity)
{
    const auto cases = table1ValidationCases();
    const TrialResult trial =
        ValidationHarness::recordTrajectory(cases[0], 1.5);
    EXPECT_FALSE(trial.trajectory.empty());
    EXPECT_NEAR(trial.peakVelocity, 1.5, 0.1);
}

/** A TX2-family spec whose AI uncertainty straddles the machine
 * knee (1330 / 59.7 ~ 22.3 op/B), so both compute and memory
 * ceilings bind with nonzero probability. */
UncertaintySpec
ceilingSpec()
{
    UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(Hertz(55.0));
    spec.platform = components::Catalog::standard().rooflines().byName(
        "Nvidia TX2");
    spec.profile.ai = OpsPerByte(22.3);
    spec.workPerFrameGop = 0.04;
    spec.aiRelStd = 0.4;
    return spec;
}

TEST(MonteCarloCeilings, TalliesProbabilityPerCeiling)
{
    // Legacy specs (no platform) report no per-ceiling tallies and
    // keep the scalar f_compute perturbation.
    UncertaintySpec legacy;
    legacy.nominal = studies::pelicanInputs(Hertz(55.0));
    const auto plain = MonteCarloAnalyzer(legacy).run(1000, 1);
    EXPECT_TRUE(plain.probComputeCeilingBinds.empty());
    EXPECT_TRUE(plain.probMemoryCeilingBinds.empty());

    const UncertaintySpec spec = ceilingSpec();
    const auto result = MonteCarloAnalyzer(spec).run(20000, 1);
    ASSERT_EQ(result.probComputeCeilingBinds.size(), 3u);
    ASSERT_EQ(result.probMemoryCeilingBinds.size(), 2u);

    // Every sample has exactly one binding ceiling.
    const double total =
        std::accumulate(result.probComputeCeilingBinds.begin(),
                        result.probComputeCeilingBinds.end(), 0.0) +
        std::accumulate(result.probMemoryCeilingBinds.begin(),
                        result.probMemoryCeilingBinds.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12);

    // Around the knee, the GPU roof (compute index 2) and the DRAM
    // level (memory index 0) both bind with real probability; the
    // never-binding scalar/SIMD/on-chip ceilings stay at zero.
    EXPECT_GT(result.probComputeCeilingBinds[2], 0.05);
    EXPECT_GT(result.probMemoryCeilingBinds[0], 0.05);
    EXPECT_EQ(result.probComputeCeilingBinds[0], 0.0);
    EXPECT_EQ(result.probComputeCeilingBinds[1], 0.0);
    EXPECT_EQ(result.probMemoryCeilingBinds[1], 0.0);
}

TEST(MonteCarloCeilings, TalliesAreBitIdenticalAcrossThreads)
{
    const UncertaintySpec spec = ceilingSpec();
    const MonteCarloAnalyzer analyzer(spec);
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool8(8);
    // Spans many sample blocks so the chunk-order merge is
    // genuinely exercised.
    const auto serial = analyzer.run(50000, 9, {.pool = &pool1});
    const auto parallel = analyzer.run(50000, 9, {.pool = &pool8});
    EXPECT_EQ(serial.safeVelocity.mean, parallel.safeVelocity.mean);
    EXPECT_EQ(serial.probComputeCeilingBinds,
              parallel.probComputeCeilingBinds);
    EXPECT_EQ(serial.probMemoryCeilingBinds,
              parallel.probMemoryCeilingBinds);
}

TEST(MonteCarloCeilings, ValidatesThePlatformPathUpFront)
{
    UncertaintySpec spec = ceilingSpec();
    spec.workPerFrameGop = 0.0;
    EXPECT_THROW(MonteCarloAnalyzer{spec}, ModelError);

    spec = ceilingSpec();
    spec.opIndex = 99;
    EXPECT_THROW(MonteCarloAnalyzer{spec}, ModelError);

    spec = ceilingSpec();
    spec.aiRelStd = -0.1;
    EXPECT_THROW(MonteCarloAnalyzer{spec}, ModelError);
}

/** The oracle summary: sort a copy and index p5/p50/p95's rank
 * pairs, interpolating as Distribution does; two-pass mean and
 * sample stddev. */
Distribution
sortedSummary(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    Distribution out;
    double sum = 0.0;
    for (const double v : samples)
        sum += v;
    out.mean = sum / static_cast<double>(n);
    double var = 0.0;
    for (const double v : samples)
        var += (v - out.mean) * (v - out.mean);
    out.stddev =
        n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 0.0;
    const auto at = [&](double percent) {
        const double rank =
            percent / 100.0 * static_cast<double>(n - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        const double a = samples[lo];
        const double b = samples[std::min(lo + 1, n - 1)];
        return a + (rank - static_cast<double>(lo)) * (b - a);
    };
    out.p5 = at(5.0);
    out.p50 = at(50.0);
    out.p95 = at(95.0);
    return out;
}

/** `samples` as (value, count) pairs: grouped, with one value's
 * count split across two pairs and a zero-count pair mixed in, in
 * an order scrambled by `rng` — fromCounts must merge all of it. */
std::vector<std::pair<double, std::uint64_t>>
histogramOf(const std::vector<double> &samples, Rng &rng)
{
    std::map<double, std::uint64_t> grouped;
    for (const double v : samples)
        ++grouped[v];
    std::vector<std::pair<double, std::uint64_t>> pairs(
        grouped.begin(), grouped.end());
    if (pairs.front().second > 1) {
        --pairs.front().second;
        pairs.emplace_back(pairs.front().first, 1);
    }
    pairs.emplace_back(samples.front() + 1.0, 0);
    for (std::size_t i = pairs.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform() * static_cast<double>(i));
        std::swap(pairs[i - 1], pairs[std::min(j, i - 1)]);
    }
    return pairs;
}

TEST(Distribution, FromCountsMatchesFromSamplesOnRandomMultisets)
{
    Rng rng(20260417);
    // Tiny sizes let a lo + 1 rank pass the next percentile's lo;
    // 21, 41, 101 and 201 put the 5%/95% ranks on exact integers
    // (no interpolation), the rest between two ranks.
    const std::vector<std::size_t> sizes = {
        1, 2, 3, 7, 20, 21, 41, 63, 64, 65, 100, 101, 201, 1000,
        4097};
    int checked = 0;
    for (const std::size_t n : sizes) {
        for (int shape = 0; shape < 3; ++shape) {
            for (int trial = 0; trial < 4; ++trial) {
                // Shapes: continuous values, heavy ties over three
                // values, a single distinct value.
                const double pool[3] = {4.25 + rng.uniform(),
                                        9.5 + rng.uniform(),
                                        0.5 + rng.uniform()};
                std::vector<double> samples(n);
                for (double &v : samples) {
                    if (shape == 0)
                        v = 10.0 * rng.uniform() - 2.0;
                    else if (shape == 1)
                        v = pool[static_cast<std::size_t>(
                            rng.uniform() * 2.999)];
                    else
                        v = pool[0];
                }
                const auto pairs = histogramOf(samples, rng);
                const Distribution expected =
                    Distribution::fromSamples(samples);
                const Distribution got =
                    Distribution::fromCounts(pairs);
                const std::string label =
                    "n=" + std::to_string(n) + " shape " +
                    std::to_string(shape);
                // fromSamples' selection against a full sort.
                const Distribution sorted = sortedSummary(samples);
                EXPECT_EQ(expected.p5, sorted.p5) << label;
                EXPECT_EQ(expected.p50, sorted.p50) << label;
                EXPECT_EQ(expected.p95, sorted.p95) << label;
                EXPECT_EQ(got.p5, expected.p5) << label;
                EXPECT_EQ(got.p50, expected.p50) << label;
                EXPECT_EQ(got.p95, expected.p95) << label;
                // Sums run in a different order, so only to rounding
                // (relative to the data's magnitude: a constant
                // multiset's stddev is rounding noise around 0).
                const double scale = std::max(
                    std::abs(expected.mean), std::abs(expected.p95));
                EXPECT_NEAR(got.mean, expected.mean, 1e-12 * scale)
                    << label;
                EXPECT_NEAR(got.stddev, expected.stddev,
                            1e-12 * scale)
                    << label;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, static_cast<int>(sizes.size()) * 12);
}

TEST(Distribution, FromCountsDependsOnlyOnTheMultiset)
{
    const std::vector<std::pair<double, std::uint64_t>> a = {
        {3.0, 5}, {1.0, 2}, {2.0, 0}, {3.0, 1}, {0.5, 7}};
    const std::vector<std::pair<double, std::uint64_t>> b = {
        {0.5, 3}, {3.0, 6}, {0.5, 4}, {1.0, 2}};
    const Distribution da = Distribution::fromCounts(a);
    const Distribution db = Distribution::fromCounts(b);
    EXPECT_EQ(da.mean, db.mean);
    EXPECT_EQ(da.stddev, db.stddev);
    EXPECT_EQ(da.p5, db.p5);
    EXPECT_EQ(da.p50, db.p50);
    EXPECT_EQ(da.p95, db.p95);
    EXPECT_EQ(da.p50, 1.0); // 15 samples: rank 7 is the 1.0 pair.

    EXPECT_THROW(Distribution::fromCounts({}), ModelError);
    EXPECT_THROW(Distribution::fromCounts({{1.0, 0}}), ModelError);
    EXPECT_THROW(Distribution::fromCounts({{std::nan(""), 1}}),
                 ModelError);
}

/** Fold `samples` block by block, spreading the blocks over three
 * slots in a scrambled order, and finish. */
std::optional<Distribution>
foldOf(const std::vector<double> &samples,
       const DistributionFold::Windows &windows)
{
    DistributionFold fold(samples.size(), 3, windows);
    const std::size_t blocks =
        (samples.size() + sampleBlock - 1) / sampleBlock;
    for (std::size_t k = 0; k < blocks; ++k) {
        const std::size_t b = blocks - 1 - k; // Last block first.
        const std::size_t lo = b * sampleBlock;
        fold.fold(b % 3, lo, samples.data() + lo,
                  std::min(samples.size(), lo + sampleBlock) - lo);
    }
    return fold.finish();
}

/** The rank-r order statistic of `samples`. */
double
rankOf(std::vector<double> samples, std::size_t r)
{
    std::sort(samples.begin(), samples.end());
    return samples[r];
}

/** Exact percentiles; mean and stddev to rounding. */
void
expectMatches(const Distribution &got, const Distribution &expected,
              const std::string &label)
{
    EXPECT_EQ(got.p5, expected.p5) << label;
    EXPECT_EQ(got.p50, expected.p50) << label;
    EXPECT_EQ(got.p95, expected.p95) << label;
    // Block partials merge in another order than the oracle's sums
    // (relative to the data's magnitude: a constant multiset's
    // stddev is rounding noise around 0).
    const double scale =
        std::max(std::abs(expected.mean), std::abs(expected.p95));
    EXPECT_NEAR(got.mean, expected.mean, 1e-12 * scale) << label;
    EXPECT_NEAR(got.stddev, expected.stddev, 1e-12 * scale) << label;
}

TEST(DistributionFold, MatchesFromSamplesOnRandomMultisets)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    Rng rng(20261017);
    // 10 is the smallest Monte-Carlo run; the rest span one to
    // three sampleBlock blocks, the last one partial.
    const std::vector<std::size_t> sizes = {10, 21, 100, 2048, 5003};
    int checked = 0;
    for (const std::size_t n : sizes) {
        for (int shape = 0; shape < 3; ++shape) {
            // Shapes: continuous values, heavy ties over three
            // values, a single distinct value.
            const double pool[3] = {4.25 + rng.uniform(),
                                    9.5 + rng.uniform(),
                                    0.5 + rng.uniform()};
            std::vector<double> samples(n);
            for (double &v : samples) {
                if (shape == 0)
                    v = 10.0 * rng.uniform() - 2.0;
                else if (shape == 1)
                    v = pool[static_cast<std::size_t>(
                        rng.uniform() * 2.999)];
                else
                    v = pool[0];
            }
            const Distribution expected = sortedSummary(samples);
            const std::string label = "n=" + std::to_string(n) +
                                      " shape " + std::to_string(shape);

            // Unbounded windows keep everything.
            const auto all =
                foldOf(samples, DistributionFold::unbounded());
            ASSERT_TRUE(all) << label;
            expectMatches(*all, expected, label);

            // Windows whose edges are the needed order statistics
            // themselves: every rank sits on an edge. With ties the
            // edge value also extends past the window, on both
            // sides, and must still be counted exactly once.
            const double q = static_cast<double>(n - 1);
            const auto lo = [&](double p) {
                return static_cast<std::size_t>(p * q);
            };
            const auto hi = [&](double p) {
                return std::min(lo(p) + 1, n - 1);
            };
            DistributionFold::Windows tight;
            const double ps[3] = {0.05, 0.50, 0.95};
            for (std::size_t i = 0; i < 3; ++i)
                tight[i] = {rankOf(samples, lo(ps[i])),
                            rankOf(samples, hi(ps[i]))};
            const auto edges = foldOf(samples, tight);
            ASSERT_TRUE(edges) << label;
            expectMatches(*edges, expected, label);

            // Windows wholly above or below the ranks miss them;
            // the caller then refolds with unbounded windows.
            const double min = rankOf(samples, 0);
            const double max = rankOf(samples, n - 1);
            DistributionFold::Windows above;
            above.fill({max + 1.0, inf});
            EXPECT_FALSE(foldOf(samples, above)) << label;
            DistributionFold::Windows below;
            below.fill({-inf, min - 1.0});
            EXPECT_FALSE(foldOf(samples, below)) << label;
            if (shape == 0) {
                // Distinct values: the p50 window alone misses.
                above = tight;
                above[1] = {max + 1.0, inf};
                EXPECT_FALSE(foldOf(samples, above)) << label;
            }
            ++checked;
        }
    }
    EXPECT_EQ(checked, static_cast<int>(sizes.size()) * 3);
}

TEST(DistributionFold, TiesOnAWindowEdgeAreCountedOnce)
{
    // 40% of the values tie at 7.0, across the p50 ranks; the p50
    // window's edges sit on the tie.
    std::vector<double> samples;
    for (int i = 0; i < 3000; ++i)
        samples.push_back(i % 5 < 2 ? 7.0 : 1.0 + 0.004 * i);
    const Distribution expected = sortedSummary(samples);
    EXPECT_EQ(expected.p50, 7.0);
    for (const auto &window :
         {std::pair{7.0, 7.0}, std::pair{7.0, 8.0}, std::pair{6.0, 7.0}}) {
        DistributionFold::Windows windows =
            DistributionFold::unbounded();
        windows[0] = {1.0, 3.0};
        windows[1] = window;
        windows[2] = {11.0, 13.0};
        const auto got = foldOf(samples, windows);
        ASSERT_TRUE(got) << window.first << ", " << window.second;
        expectMatches(*got, expected, "tie on an edge");
    }
}

TEST(DistributionFold, PilotWindowsKeepAFewPercentAndStayExact)
{
    // A pilot of the first 16 blocks sets the windows of a run over
    // 100 blocks, as MonteCarloAnalyzer::run() does.
    Rng rng(99);
    std::vector<double> samples(100 * sampleBlock);
    for (double &v : samples)
        v = std::exp(0.3 * rng.normal());
    const std::size_t pilot_size = 16 * sampleBlock;
    DistributionFold pilot(pilot_size, 1);
    for (std::size_t lo = 0; lo < pilot_size; lo += sampleBlock)
        pilot.fold(0, lo, samples.data() + lo, sampleBlock);
    const DistributionFold::Windows windows = pilot.pilotWindows();
    std::size_t kept = 0;
    for (const auto &[lo, hi] : windows) {
        EXPECT_LT(lo, hi);
        kept += static_cast<std::size_t>(
            std::count_if(samples.begin(), samples.end(),
                          [&](double v) { return v >= lo && v <= hi; }));
    }
    EXPECT_LT(kept, samples.size() / 10);
    const auto got = foldOf(samples, windows);
    ASSERT_TRUE(got);
    expectMatches(*got, sortedSummary(samples), "pilot");

    // Only an unbounded fold can act as a pilot.
    DistributionFold bounded(pilot_size, 1, windows);
    EXPECT_THROW(bounded.pilotWindows(), ModelError);
}

TEST(DistributionFold, RejectsNaNAndBadWindows)
{
    std::vector<double> samples(10, 1.0);
    samples[7] = std::nan("");
    EXPECT_THROW(foldOf(samples, DistributionFold::unbounded()),
                 ModelError);
    // Bounded windows: the NaN is missing from every count.
    DistributionFold::Windows windows;
    windows.fill({0.5, 2.0});
    EXPECT_THROW(foldOf(samples, windows), ModelError);

    windows[2] = {2.0, 1.0};
    EXPECT_THROW(DistributionFold(10, 1, windows), ModelError);
    EXPECT_THROW(DistributionFold(0, 1), ModelError);
}

/**
 * normalBlock(out, n) from `rng` after `before` normal() calls must
 * give exactly the next n normal() values, and leave the stream where
 * they would: the next draws after it match too.
 */
void
expectNormalBlockMatches(const Rng &rng, std::size_t before,
                         std::size_t n)
{
    Rng block = rng;
    Rng scalar = rng;
    for (std::size_t k = 0; k < before; ++k)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(block.normal()),
                  std::bit_cast<std::uint64_t>(scalar.normal()));
    std::vector<double> out(n);
    block.normalBlock(out.data(), n);
    for (std::size_t k = 0; k < n; ++k)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[k]),
                  std::bit_cast<std::uint64_t>(scalar.normal()))
            << "draw " << k << " of " << n << " after " << before;
    // An odd total leaves a spare: the first of these draws reads
    // it, the next two start a fresh pair.
    for (std::size_t k = 0; k < 3; ++k)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(block.normal()),
                  std::bit_cast<std::uint64_t>(scalar.normal()))
            << "draw " << k << " after a block of " << n;
}

TEST(Rng, NormalBlockMatchesNormal)
{
    // SplitMix64 mixes 0 to 0, so a stream seeded at -(2j + 1) times
    // the increment draws an exactly-zero uniform 2j: its Box-Muller
    // pair j goes through the log(0) guard.
    const auto guarded = [](std::uint64_t pair) {
        return Rng(0ull - (2 * pair + 1) * 0x9e3779b97f4a7c15ull);
    };
    ASSERT_EQ(guarded(0).uniform(), 0.0);
    ASSERT_TRUE(std::isfinite(guarded(0).normal()));

    // Around the 128-pair chunk and past several chunks.
    for (const std::size_t n : {0u, 1u, 2u, 3u, 127u, 128u, 129u, 255u,
                                256u, 257u, 1001u}) {
        SCOPED_TRACE(n);
        // No spare in, a spare carried in (one earlier draw), and
        // three earlier draws.
        for (const std::size_t before : {0u, 1u, 3u})
            expectNormalBlockMatches(Rng(12345), before, n);
        // The guarded pair first in the block, right after a carried
        // spare, and (once n passes 400) in the block's second chunk.
        expectNormalBlockMatches(guarded(0), 0, n);
        expectNormalBlockMatches(guarded(1), 1, n);
        expectNormalBlockMatches(guarded(200), 0, n);
    }
}

TEST(ForEachBlock, VisitsEveryIndexOnceOnItsBlockStream)
{
    constexpr std::uint64_t seed = 42;
    // Two full blocks plus a partial one.
    constexpr std::size_t count = 2 * sampleBlock + 37;
    for (const std::size_t threads : {1, 2, 8}) {
        exec::ThreadPool pool(threads);
        const exec::ParallelOptions parallel{.pool = &pool};
        const std::size_t slots = exec::maxSlots(parallel);
        std::vector<std::atomic<int>> visits(count);
        std::vector<std::atomic<std::size_t>> block_size(3);
        std::atomic<bool> slots_ok{true};
        std::atomic<bool> streams_ok{true};
        forEachBlock(count, seed, parallel,
                     [&](std::size_t slot, Rng &rng, std::size_t lo,
                         std::size_t hi) {
                         slots_ok = slots_ok && slot < slots;
                         const std::size_t b = lo / sampleBlock;
                         EXPECT_EQ(lo, b * sampleBlock);
                         block_size[b] += hi - lo;
                         Rng expected = Rng(seed).forkAt(b);
                         for (std::size_t i = lo; i < hi; ++i) {
                             ++visits[i];
                             streams_ok = streams_ok &&
                                          rng.nextU64() ==
                                              expected.nextU64();
                         }
                     });
        EXPECT_TRUE(slots_ok) << threads << " threads";
        EXPECT_TRUE(streams_ok) << threads << " threads";
        EXPECT_EQ(block_size[0], sampleBlock);
        EXPECT_EQ(block_size[1], sampleBlock);
        EXPECT_EQ(block_size[2], 37u);
        EXPECT_TRUE(std::all_of(visits.begin(), visits.end(),
                                [](const auto &v) { return v == 1; }))
            << threads << " threads";
    }
}

TEST(ForEachBlock, FiredTokenStopsTheSampler)
{
    const auto never = [](std::size_t, Rng &, std::size_t,
                          std::size_t) {
        ADD_FAILURE() << "a fired token must stop every block";
    };
    for (const std::size_t threads : {1, 2, 8}) {
        exec::ThreadPool pool(threads);
        const exec::CancellationToken cancelled =
            exec::CancellationToken::create();
        cancelled.requestCancel();
        EXPECT_THROW(forEachBlock(4 * sampleBlock, 1,
                                  {.pool = &pool, .cancel = cancelled},
                                  never),
                     CancelledError);

        const exec::CancellationToken expired =
            exec::CancellationToken().withDeadlineAfter(
                std::chrono::milliseconds(1));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_THROW(forEachBlock(4 * sampleBlock, 1,
                                  {.pool = &pool, .cancel = expired},
                                  never),
                     TimeoutError);
    }
}

} // namespace
