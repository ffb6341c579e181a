/**
 * @file
 * Sweep-engine perf bench: serial vs parallel Monte-Carlo
 * uncertainty analysis and design-space sweeps.
 *
 * Prints the determinism check (1M samples must be bit-identical at
 * 1, 2 and 8 threads), reports the measured wall-clock speedup (the
 * DSE timings are medians of 31 sweeps), and
 * writes a BENCH_sweep_engine.json baseline into the artifacts
 * directory so later PRs can track the perf trajectory.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_common.hh"
#include "components/catalog.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "sim/monte_carlo.hh"
#include "skyline/dse.hh"
#include "studies/presets.hh"
#include "workload/algorithm.hh"

namespace {

using namespace uavf1;

/** The Monte-Carlo workload all measurements share. */
sim::MonteCarloAnalyzer
analyzer()
{
    sim::UncertaintySpec spec;
    spec.nominal = studies::pelicanInputs(units::Hertz(55.0));
    return sim::MonteCarloAnalyzer(spec);
}

/** The DSE workload: full catalog x algorithm grid. */
struct DseWorkload
{
    skyline::DesignSpaceExplorer dse;
    std::vector<components::ComputePlatform> computes;
    std::vector<workload::AutonomyAlgorithm> algorithms;

    static DseWorkload standard()
    {
        const auto catalog = components::Catalog::standard();
        core::UavConfig::Builder builder("sweep-bench");
        builder
            .airframe(catalog.airframes().byName("AscTec Pelican"))
            .sensor(catalog.sensors().byName("RGB-D 60FPS (4.5m)"));
        DseWorkload workload{
            skyline::DesignSpaceExplorer(builder), {}, {}};
        workload.computes = catalog.computes().items();
        const auto algos = workload::standardAlgorithms();
        workload.algorithms = algos.items();
        return workload;
    }
};

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Sweeps behind each DSE timing. */
constexpr std::size_t dseRepeats = 31;

/** Median wall time of dseRepeats calls of `body`, in ms. */
template <typename Body>
double
medianMillis(Body &&body)
{
    std::vector<double> times;
    for (std::size_t rep = 0; rep < dseRepeats; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        body();
        times.push_back(millisSince(start));
    }
    std::nth_element(times.begin(), times.begin() + dseRepeats / 2,
                     times.end());
    return times[dseRepeats / 2];
}

void
printFigure()
{
    bench::banner("Sweep engine",
                  "Parallel Monte-Carlo and DSE sweeps");

    const auto mc = analyzer();
    constexpr std::size_t samples = 1000000;

    exec::ThreadPool pool1(1);
    exec::ThreadPool pool2(2);
    exec::ThreadPool pool8(8);

    // Untimed warm-up so the serial measurement doesn't also pay
    // one-time costs (first-touch page faults, allocator growth)
    // that would inflate the speedup recorded in the baseline.
    (void)mc.run(samples, 11, {.pool = &pool1});

    auto start = std::chrono::steady_clock::now();
    const auto r1 = mc.run(samples, 11, {.pool = &pool1});
    const double serial_ms = millisSince(start);

    const auto r2 = mc.run(samples, 11, {.pool = &pool2});

    start = std::chrono::steady_clock::now();
    const auto r8 = mc.run(samples, 11, {.pool = &pool8});
    const double parallel_ms = millisSince(start);

    const bool identical =
        r1.safeVelocity.mean == r2.safeVelocity.mean &&
        r1.safeVelocity.mean == r8.safeVelocity.mean &&
        r1.safeVelocity.p5 == r8.safeVelocity.p5 &&
        r1.safeVelocity.p95 == r8.safeVelocity.p95 &&
        r1.kneeThroughput.p50 == r8.kneeThroughput.p50 &&
        r1.probComputeBound == r8.probComputeBound &&
        r1.probPhysicsBound == r8.probPhysicsBound;

    std::printf("  Monte-Carlo, %zu samples:\n", samples);
    std::printf("    1 thread  %8.1f ms\n", serial_ms);
    std::printf("    8 threads %8.1f ms (%.2fx)\n", parallel_ms,
                serial_ms / parallel_ms);
    std::printf("    bit-identical across 1/2/8 threads: %s\n",
                identical ? "yes" : "NO (BUG)");

    // One sweep takes well under a millisecond, so a single timing
    // cannot resolve differences under ~25% on a noisy host: report
    // the median of dseRepeats sweeps instead.
    const auto dse = DseWorkload::standard();
    const auto points1 =
        dse.dse.sweep(dse.computes, dse.algorithms, {.pool = &pool1});
    const auto points8 =
        dse.dse.sweep(dse.computes, dse.algorithms, {.pool = &pool8});
    const double dse_serial_ms = medianMillis([&] {
        benchmark::DoNotOptimize(dse.dse.sweep(
            dse.computes, dse.algorithms, {.pool = &pool1}));
    });
    const double dse_parallel_ms = medianMillis([&] {
        benchmark::DoNotOptimize(dse.dse.sweep(
            dse.computes, dse.algorithms, {.pool = &pool8}));
    });

    bool dse_identical = points1.size() == points8.size();
    for (std::size_t i = 0; dse_identical && i < points1.size();
         ++i) {
        dse_identical =
            points1[i].safeVelocity == points8[i].safeVelocity &&
            points1[i].computePower == points8[i].computePower &&
            points1[i].feasible == points8[i].feasible;
    }
    std::printf("  DSE sweep, %zu designs (median of %zu sweeps):\n",
                points1.size(), dseRepeats);
    std::printf("    1 thread  %8.2f ms\n", dse_serial_ms);
    std::printf("    8 threads %8.2f ms (%.2fx)\n", dse_parallel_ms,
                dse_serial_ms / dse_parallel_ms);
    std::printf("    identical across 1/8 threads: %s\n",
                dse_identical ? "yes" : "NO (BUG)");
    bench::note("speedups depend on the machine's core count; the "
                "determinism columns must hold everywhere");

    // Perf-trajectory baseline for later PRs.
    const std::string path =
        bench::artifactsDir() + "/BENCH_sweep_engine.json";
    std::ofstream json(path);
    json << "{\n"
         << "  \"benchmark\": \"sweep_engine\",\n"
         << "  \"hardware_threads\": "
         << exec::ThreadPool::defaultThreadCount() << ",\n"
         << "  \"monte_carlo_samples\": " << samples << ",\n"
         << "  \"monte_carlo_serial_ms\": " << serial_ms << ",\n"
         << "  \"monte_carlo_8thread_ms\": " << parallel_ms << ",\n"
         << "  \"monte_carlo_speedup\": "
         << serial_ms / parallel_ms << ",\n"
         << "  \"monte_carlo_bit_identical\": "
         << (identical ? "true" : "false") << ",\n"
         << "  \"dse_designs\": " << points1.size() << ",\n"
         << "  \"dse_repeats\": " << dseRepeats << ",\n"
         << "  \"dse_serial_ms\": " << dse_serial_ms << ",\n"
         << "  \"dse_8thread_ms\": " << dse_parallel_ms << ",\n"
         << "  \"dse_bit_identical\": "
         << (dse_identical ? "true" : "false") << "\n"
         << "}\n";
    std::printf("  artifacts: BENCH_sweep_engine.json\n");
}

void
BM_MonteCarloSerial(benchmark::State &state)
{
    const auto mc = analyzer();
    exec::ThreadPool pool(1);
    const auto count = static_cast<std::size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(mc.run(count, 11, {.pool = &pool}));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_MonteCarloSerial)->Arg(100000);

void
BM_MonteCarloParallel(benchmark::State &state)
{
    const auto mc = analyzer();
    const auto count = static_cast<std::size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(mc.run(count, 11));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_MonteCarloParallel)->Arg(100000);

void
BM_DseSweepSerial(benchmark::State &state)
{
    const auto workload = DseWorkload::standard();
    exec::ThreadPool pool(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(workload.dse.sweep(
            workload.computes, workload.algorithms, {.pool = &pool}));
    }
}
BENCHMARK(BM_DseSweepSerial);

void
BM_DseSweepParallel(benchmark::State &state)
{
    const auto workload = DseWorkload::standard();
    for (auto _ : state) {
        benchmark::DoNotOptimize(workload.dse.sweep(
            workload.computes, workload.algorithms));
    }
}
BENCHMARK(BM_DseSweepParallel);

} // namespace

int
main(int argc, char **argv)
{
    printFigure();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
