/**
 * @file
 * Width-invariance tests for the SIMD layer: simd::Pack ops are
 * bit-identical to the scalar expression lane by lane (including
 * NaN/inf/denormal operands and the select-based min/max
 * semantics), and every vectorized kernel produces the same bits
 * under UAVF1_SIMD-forced scalar and native dispatch at awkward
 * sample counts — 1, W-1 and W+1 (mod the 64-sample kernel block)
 * for the compiled native width — so the stride/tail split can
 * never leak into results.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "components/catalog.hh"
#include "core/f1_batch.hh"
#include "core/f1_model.hh"
#include "platform/evaluation_plan.hh"
#include "simd/simd.hh"
#include "support/rng.hh"
#include "workload/algorithm.hh"
#include "workload/batch_eval.hh"
#include "workload/spa_pipeline.hh"

namespace {

using namespace uavf1;

/** Bitwise double equality: distinguishes ±0 and compares NaNs. */
bool
bitEq(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Restore the dispatch mode on scope exit, whatever a test set. */
struct ModeGuard
{
    simd::Mode saved = simd::activeMode();
    ~ModeGuard() { simd::setMode(saved); }
};

/** Operand pool: every special value class plus ordinary draws. */
std::vector<double>
operandPool()
{
    std::vector<double> pool = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        1.5,
        -2.75,
        1e-300,
        1e300,
        DBL_MIN,
        DBL_MAX,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    Rng rng(99);
    for (int i = 0; i < 50; ++i)
        pool.push_back(rng.uniform(-100.0, 100.0));
    return pool;
}

/** Every Pack op vs its scalar expression, lane by lane. */
template <std::size_t W>
void
checkPackOps()
{
    using P = simd::Pack<double, W>;
    const std::vector<double> pool = operandPool();

    double a[W], b[W], out[W];
    for (std::size_t trial = 0; trial + W < pool.size(); ++trial) {
        for (std::size_t l = 0; l < W; ++l) {
            a[l] = pool[(trial + l) % pool.size()];
            b[l] = pool[(trial * 7 + l * 3 + 1) % pool.size()];
        }
        const P pa = P::load(a);
        const P pb = P::load(b);

        (pa + pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] + b[l]));
        (pa - pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] - b[l]));
        (pa * pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] * b[l]));
        (pa / pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] / b[l]));
        sqrt(pa).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], std::sqrt(a[l])));

        // min/max follow the scalar ternary, NaN operands included.
        min(pa, pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], b[l] < a[l] ? b[l] : a[l]));
        max(pa, pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] < b[l] ? b[l] : a[l]));

        // Compares (false on NaN, like the scalar operators),
        // select, and the mask reductions/combinators.
        select(pa < pb, pa, pb).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] < b[l] ? a[l] : b[l]));
        select(pa >= pb, pb, pa).store(out);
        for (std::size_t l = 0; l < W; ++l)
            EXPECT_TRUE(bitEq(out[l], a[l] >= b[l] ? b[l] : a[l]));

        bool scalar_all = true;
        std::size_t scalar_count = 0;
        std::size_t scalar_andnot = 0;
        std::size_t scalar_or = 0;
        for (std::size_t l = 0; l < W; ++l) {
            const bool le = a[l] <= b[l];
            const bool gt = a[l] > b[l];
            const bool eq = a[l] == b[l];
            scalar_all = scalar_all && le;
            scalar_count += le && gt ? 1 : 0;
            scalar_andnot += !le && eq ? 1 : 0;
            scalar_or += le || gt ? 1 : 0;
        }
        EXPECT_EQ(allTrue(pa <= pb), scalar_all);
        EXPECT_EQ(count((pa <= pb) & (pa > pb)), scalar_count);
        EXPECT_EQ(count(andnot(pa <= pb, pa == pb)),
                  scalar_andnot);
        EXPECT_EQ(count((pa <= pb) | (pa > pb)), scalar_or);
    }
}

TEST(SimdPack, OpsMatchScalarLaneByLane)
{
    checkPackOps<1>(); // Generic fallback.
    if constexpr (simd::nativeWidth > 1)
        checkPackOps<simd::nativeWidth>(); // Compiled backend.
    checkPackOps<3>(); // Generic, odd width.
    checkPackOps<8>(); // Generic, wider than any backend.
}

TEST(SimdMode, SetModeControlsDispatch)
{
    ModeGuard guard;
    simd::setMode(simd::Mode::Scalar);
    EXPECT_EQ(simd::activeMode(), simd::Mode::Scalar);
    EXPECT_FALSE(simd::useNative());
    simd::setMode(simd::Mode::Native);
    EXPECT_EQ(simd::activeMode(), simd::Mode::Native);
    EXPECT_EQ(simd::useNative(), simd::nativeWidth > 1);
}

/** The tail-exercising sample counts: 1, W-1, W+1 (mod the
 * 64-sample kernel block) for the compiled width, plus the block
 * boundary itself. */
std::vector<std::size_t>
tailCounts(std::size_t max)
{
    const std::size_t w = simd::nativeWidth;
    std::set<std::size_t> counts = {1, 63, 64, 65};
    if (w > 1) {
        counts.insert(w - 1);
        counts.insert(w + 1);
        counts.insert(64 + w - 1);
        counts.insert(64 + w + 1);
    }
    std::vector<std::size_t> out;
    for (std::size_t n : counts)
        if (n >= 1 && n <= max)
            out.push_back(n);
    return out;
}

TEST(SimdKernels, AnalyzeBlockScalarAndNativeBitIdentical)
{
    ModeGuard guard;
    constexpr std::size_t maxN = 130;
    Rng rng(11);
    double a_max[maxN], range[maxN], sensor[maxN], compute[maxN];
    for (std::size_t i = 0; i < maxN; ++i) {
        a_max[i] = rng.uniform(1.0, 30.0);
        range[i] = rng.uniform(5.0, 200.0);
        sensor[i] = rng.uniform(1.0, 120.0);
        compute[i] = rng.uniform(1.0, 120.0);
    }
    for (std::size_t n : tailCounts(maxN)) {
        double s_vs[maxN], s_knee[maxN], s_roof[maxN];
        double n_vs[maxN], n_knee[maxN], n_roof[maxN];
        std::uint8_t s_bound[maxN], n_bound[maxN];

        simd::setMode(simd::Mode::Scalar);
        const bool s_ok = core::analyzeBlock(
            a_max, range, sensor, compute, 1000.0, 0.5, n, s_vs,
            s_knee, s_roof, s_bound);
        simd::setMode(simd::Mode::Native);
        const bool n_ok = core::analyzeBlock(
            a_max, range, sensor, compute, 1000.0, 0.5, n, n_vs,
            n_knee, n_roof, n_bound);

        EXPECT_EQ(s_ok, n_ok) << "n=" << n;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(bitEq(s_vs[i], n_vs[i])) << "n=" << n;
            EXPECT_TRUE(bitEq(s_knee[i], n_knee[i])) << "n=" << n;
            EXPECT_TRUE(bitEq(s_roof[i], n_roof[i])) << "n=" << n;
            EXPECT_EQ(s_bound[i], n_bound[i]) << "n=" << n;
        }

        // A bad sample trips the flag identically in both modes.
        double bad[maxN];
        std::memcpy(bad, sensor, sizeof bad);
        bad[n - 1] = -1.0;
        simd::setMode(simd::Mode::Scalar);
        const bool s_bad = core::analyzeBlock(
            a_max, range, bad, compute, 1000.0, 0.5, n, s_vs,
            s_knee, s_roof, s_bound);
        simd::setMode(simd::Mode::Native);
        const bool n_bad = core::analyzeBlock(
            a_max, range, bad, compute, 1000.0, 0.5, n, n_vs,
            n_knee, n_roof, n_bound);
        EXPECT_FALSE(s_bad);
        EXPECT_FALSE(n_bad);
    }
}

TEST(SimdKernels, AnalyzeVSafeBlockScalarAndNativeBitIdentical)
{
    ModeGuard guard;
    constexpr std::size_t maxN = 130;
    Rng rng(13);
    double sensor[maxN], compute[maxN];
    for (std::size_t i = 0; i < maxN; ++i) {
        sensor[i] = rng.uniform(1.0, 120.0);
        compute[i] = rng.uniform(1.0, 120.0);
    }
    for (std::size_t n : tailCounts(maxN)) {
        double s_vs[maxN], n_vs[maxN];
        simd::setMode(simd::Mode::Scalar);
        const bool s_ok = core::analyzeVSafeBlock(
            9.8, 40.0, sensor, compute, 1000.0, n, s_vs);
        simd::setMode(simd::Mode::Native);
        const bool n_ok = core::analyzeVSafeBlock(
            9.8, 40.0, sensor, compute, 1000.0, n, n_vs);
        EXPECT_EQ(s_ok, n_ok) << "n=" << n;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(bitEq(s_vs[i], n_vs[i])) << "n=" << n;
    }
}

TEST(SimdKernels, EvaluationPlanScalarAndNativeBitIdentical)
{
    ModeGuard guard;
    const auto catalog = components::Catalog::standard();
    const platform::RooflinePlatform &tx2 =
        catalog.rooflines().byName("Nvidia TX2");
    platform::WorkloadProfile profile;
    profile.ai = units::OpsPerByte(1.0);
    const platform::EvaluationPlan plan(tx2, profile);

    constexpr std::size_t maxN = 130;
    Rng rng(19);
    double ai[maxN];
    for (std::size_t i = 0; i < maxN; ++i)
        ai[i] = rng.uniform(0.01, 80.0);
    ai[0] = 22.3; // The TX2 knee, where tie rules matter.

    for (std::size_t n : tailCounts(maxN)) {
        for (std::size_t op = 0; op < plan.operatingPointCount();
             ++op) {
            double s_att[maxN], n_att[maxN];
            std::uint32_t s_slot[maxN], n_slot[maxN];
            simd::setMode(simd::Mode::Scalar);
            plan.evaluateBlock(op, ai, n, s_att, s_slot);
            simd::setMode(simd::Mode::Native);
            plan.evaluateBlock(op, ai, n, n_att, n_slot);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_TRUE(bitEq(s_att[i], n_att[i]))
                    << "n=" << n << " op=" << op;
                EXPECT_EQ(s_slot[i], n_slot[i])
                    << "n=" << n << " op=" << op;
            }
        }
    }
}

TEST(SimdKernels, StagePipelinePlanScalarAndNativeBitIdentical)
{
    ModeGuard guard;
    const auto catalog = components::Catalog::standard();
    const workload::SpaPipeline pipeline =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();
    for (const char *platform_name :
         {"Nvidia TX2", "TX2-CPU + Navion"}) {
        const platform::RooflinePlatform &machine =
            catalog.rooflines().byName(platform_name);
        const workload::StagePipelinePlan plan(pipeline, machine);
        const std::size_t stages = plan.stageCount();

        constexpr std::size_t maxN =
            workload::StagePipelinePlan::blockSize;
        Rng rng(23);
        double ai_scale[maxN];
        for (std::size_t i = 0; i < maxN; ++i)
            ai_scale[i] = rng.uniform(0.5, 2.0);
        // Extremes defeat the whole-block fast path so the
        // per-stage slow loops run too.
        ai_scale[maxN - 1] = 1e-9;
        ai_scale[maxN - 2] = 1e9;

        workload::StagePipelinePlan::Scratch scratch;
        for (std::size_t n : tailCounts(maxN)) {
            for (bool measured_first : {false, true}) {
                double s_thr[maxN], n_thr[maxN];
                std::uint32_t s_slot[maxN], n_slot[maxN];
                std::vector<std::uint64_t> s_counts(stages * 3,
                                                    0);
                std::vector<std::uint64_t> n_counts(stages * 3,
                                                    0);
                simd::setMode(simd::Mode::Scalar);
                plan.evaluateBlock(0, measured_first, ai_scale, n,
                                   s_thr, s_slot, s_counts.data(),
                                   scratch);
                simd::setMode(simd::Mode::Native);
                plan.evaluateBlock(0, measured_first, ai_scale, n,
                                   n_thr, n_slot, n_counts.data(),
                                   scratch);
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_TRUE(bitEq(s_thr[i], n_thr[i]))
                        << platform_name << " n=" << n;
                    EXPECT_EQ(s_slot[i], n_slot[i])
                        << platform_name << " n=" << n;
                }
                EXPECT_EQ(s_counts, n_counts)
                    << platform_name << " n=" << n;
            }
        }
    }
}

} // namespace
