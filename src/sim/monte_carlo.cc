/**
 * @file
 * MonteCarloAnalyzer implementation, and the forEachBlock skeleton
 * it shares with fault campaigns.
 *
 * run() and runReference() share one Sampler (setup, per-slot
 * tallies, summary) on forEachBlock and differ only in the per-block
 * body. run()'s is the batched hot path: kernelBlock-sized
 * sub-batches through a sequential draw phase, the compiled plans
 * and the core::analyzeBlock kernel, every per-sample expression
 * matching the scalar loop operand for operand. runReference()'s is
 * that scalar sample-at-a-time loop, kept as the oracle; the two are
 * bit-identical. A sub-batch that fails a kernel's validation flag
 * is re-run through the scalar loop from a saved RNG state, so the
 * thrown error (and every committed value before it) matches it
 * exactly.
 */

#include "sim/monte_carlo.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/f1_batch.hh"
#include "platform/evaluation_plan.hh"
#include "simd/pack.hh"
#include "support/errors.hh"
#include "support/rng.hh"
#include "support/validate.hh"
#include "workload/batch_eval.hh"
#include "workload/stage_eval.hh"

namespace uavf1::sim {

namespace {

/** The (lo, lo + 1) rank pairs bracketing p5/p50/p95 of n sorted
 * values, and each percentile's interpolation fraction. */
struct PercentileRanks
{
    std::array<std::size_t, 6> ranks{};
    std::array<double, 3> fracs{};

    explicit PercentileRanks(std::size_t n)
    {
        for (std::size_t i = 0; i < 3; ++i) {
            constexpr double kPercentiles[3] = {5.0, 50.0, 95.0};
            const double rank = kPercentiles[i] / 100.0 *
                                static_cast<double>(n - 1);
            const std::size_t lo = static_cast<std::size_t>(rank);
            ranks[2 * i] = lo;
            ranks[2 * i + 1] = std::min(lo + 1, n - 1);
            fracs[i] = rank - static_cast<double>(lo);
        }
    }

    /** Fill p5/p50/p95 from the six order statistics. */
    void interpolate(const std::array<double, 6> &stat,
                     Distribution &out) const
    {
        const auto at = [&](std::size_t i) {
            const double lo = stat[2 * i];
            const double hi = stat[2 * i + 1];
            return lo + fracs[i] * (hi - lo);
        };
        out.p5 = at(0);
        out.p50 = at(1);
        out.p95 = at(2);
    }
};

} // namespace

Distribution
Distribution::fromSamples(std::vector<double> samples)
{
    if (samples.empty())
        throw ModelError("distribution requires samples");

    Distribution out;
    const std::size_t n = samples.size();
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    out.mean = sum / static_cast<double>(n);
    double var = 0.0;
    for (double s : samples)
        var += (s - out.mean) * (s - out.mean);
    out.stddev =
        n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 0.0;

    // Only six order statistics are needed — the (lo, lo + 1)
    // pairs bracketing p5/p50/p95.
    const PercentileRanks percentiles(n);
    const std::array<std::size_t, 6> &ranks = percentiles.ranks;

    std::array<double, 6> stat{};
    if (n < 64) {
        std::sort(samples.begin(), samples.end());
        for (std::size_t i = 0; i < 6; ++i)
            stat[i] = samples[ranks[i]];
    } else {
        // Select the three lo ranks with nth_element — median over
        // the whole array first and then one pass per half, so no
        // partition ever revisits the other half; each lo + 1
        // statistic is the minimum of the range the partitions
        // bound it to (the value at sorted position k + 1 is the
        // smallest element stored right of pinned position k),
        // a cheap vectorizable scan instead of another partition
        // pass. Every selected value is an exact order statistic,
        // identical to the sorted-array one; n >= 64 keeps
        // l < m < h strict and every min range non-empty.
        const auto begin = samples.begin();
        const auto minOver = [&](std::size_t lo, std::size_t hi) {
            double v = samples[lo];
            for (std::size_t i = lo + 1; i < hi; ++i)
                v = samples[i] < v ? samples[i] : v;
            return v;
        };
        const std::size_t l = ranks[0];
        const std::size_t m = ranks[2];
        const std::size_t h = ranks[4];
        std::nth_element(begin, begin + m, samples.end());
        stat[2] = samples[m];
        stat[3] = ranks[3] == m ? stat[2] : minOver(m + 1, n);
        std::nth_element(begin, begin + l, begin + m);
        stat[0] = samples[l];
        stat[1] = ranks[1] == l ? stat[0] : minOver(l + 1, m + 1);
        std::nth_element(begin + m + 1, begin + h, samples.end());
        stat[4] = samples[h];
        stat[5] = ranks[5] == h ? stat[4] : minOver(h + 1, n);
    }

    percentiles.interpolate(stat, out);
    return out;
}

Distribution
Distribution::fromCounts(
    std::vector<std::pair<double, std::uint64_t>> counts)
{
    // Sort and merge equal values first, so every sum below runs
    // over the multiset in one canonical order.
    for (const auto &entry : counts) {
        if (std::isnan(entry.first))
            throw ModelError("distribution values must not be NaN");
    }
    std::sort(counts.begin(), counts.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    std::size_t distinct = 0;
    std::uint64_t n = 0;
    for (const auto &entry : counts) {
        if (entry.second == 0)
            continue;
        n += entry.second;
        if (distinct > 0 && counts[distinct - 1].first == entry.first)
            counts[distinct - 1].second += entry.second;
        else
            counts[distinct++] = entry;
    }
    counts.resize(distinct);
    if (n == 0)
        throw ModelError("distribution requires samples");

    Distribution out;
    double sum = 0.0;
    for (const auto &[value, count] : counts)
        sum += value * static_cast<double>(count);
    out.mean = sum / static_cast<double>(n);
    double var = 0.0;
    for (const auto &[value, count] : counts)
        var += static_cast<double>(count) * ((value - out.mean) *
                                             (value - out.mean));
    out.stddev =
        n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 0.0;

    // Walk the cumulative counts to each rank: sorted positions
    // [0, through) hold the values up to counts[value].first. The
    // walk restarts when a rank falls behind the previous one (a
    // lo + 1 rank can pass the next percentile's lo on tiny n).
    const PercentileRanks percentiles(static_cast<std::size_t>(n));
    std::array<double, 6> stat{};
    std::size_t value = 0;
    std::uint64_t through = counts[0].second;
    for (std::size_t i = 0; i < 6; ++i) {
        if (i > 0 && percentiles.ranks[i] < percentiles.ranks[i - 1]) {
            value = 0;
            through = counts[0].second;
        }
        while (percentiles.ranks[i] >= through)
            through += counts[++value].second;
        stat[i] = counts[value].first;
    }
    percentiles.interpolate(stat, out);
    return out;
}

MonteCarloAnalyzer::MonteCarloAnalyzer(const UncertaintySpec &spec)
    : _spec(spec)
{
    // Validate the nominal by constructing the model once.
    (void)core::F1Model(spec.nominal);
    requireNonNegative(spec.aMaxRelStd, "aMaxRelStd");
    requireNonNegative(spec.rangeRelStd, "rangeRelStd");
    requireNonNegative(spec.computeRelStd, "computeRelStd");
    requireNonNegative(spec.sensorRelStd, "sensorRelStd");
    if (spec.pipeline && !spec.platform) {
        throw ModelError(
            "UncertaintySpec::pipeline requires a platform — the "
            "per-stage path evaluates modeled roofline bounds");
    }
    if (spec.platform) {
        requireNonNegative(spec.aiRelStd, "aiRelStd");
        if (spec.pipeline) {
            // Validate stage profiles and the operating point once
            // up front so per-sample evaluations cannot throw.
            const workload::StagePipelineEvaluator evaluator(
                *spec.pipeline, *spec.platform);
            workload::StageEvalOptions eval_options;
            eval_options.opIndex = spec.opIndex;
            eval_options.measuredFirst = false;
            (void)evaluator.evaluate(eval_options);
        } else {
            requirePositive(spec.workPerFrameGop, "workPerFrameGop");
            // Validate profile, operating point and applicability
            // once up front so per-sample evaluations cannot throw.
            (void)spec.platform->attainable(spec.profile,
                                            spec.opIndex);
        }
    }
}

void
forEachBlock(
    std::size_t count, std::uint64_t seed,
    const exec::ParallelOptions &parallel,
    const std::function<void(std::size_t, Rng &, std::size_t,
                             std::size_t)> &body)
{
    const Rng root(seed);
    exec::ParallelOptions options = parallel;
    options.grain = 1; // One block per chunk.
    exec::parallelForSlots(
        (count + sampleBlock - 1) / sampleBlock,
        [&](std::size_t slot, std::size_t b, std::size_t) {
            Rng rng = root.forkAt(b);
            const std::size_t lo = b * sampleBlock;
            body(slot, rng, lo, std::min(count, lo + sampleBlock));
        },
        options);
}

namespace {

/**
 * A multiplicative lognormal perturbation with E[factor] = 1 and the
 * requested relative standard deviation (so nominal values stay
 * unbiased), split at its sample-invariant seam: mu and sqrt(sigma2)
 * depend only on rel_std, so they are computed once and each sample
 * draws only the factor. An inactive spread draws nothing and
 * yields 1.0, an exact identity under `nominal * factor`.
 */
struct PerturbParams
{
    bool active = false;
    double mu = 0.0;
    double sqrtSigma = 0.0;
};

PerturbParams
perturbParams(double rel_std)
{
    PerturbParams p;
    if (rel_std <= 0.0)
        return p;
    const double sigma2 = std::log(1.0 + rel_std * rel_std);
    p.active = true;
    p.mu = -sigma2 / 2.0;
    p.sqrtSigma = std::sqrt(sigma2);
    return p;
}

double
drawFactor(const PerturbParams &p, Rng &rng)
{
    if (!p.active)
        return 1.0;
    return std::exp(p.mu + p.sqrtSigma * rng.normal());
}

/** Per-slot scratch for the batched path: one sub-batch of SoA
 * lanes plus the plan scratch, reused across blocks. Aligned to
 * the widest vector the build could select so the kernels' stride
 * loads never split a cache line. */
struct alignas(64) Arena
{
    static constexpr std::size_t cap =
        MonteCarloAnalyzer::kernelBlock;
    static_assert(cap % simd::nativeWidth == 0,
                  "native width must divide the kernel block");
    double aMax[cap];
    double range[cap];
    double ai[cap]; ///< Pipeline path: the shared AI scale.
    double computeFactor[cap];
    double throughput[cap]; ///< Flat path: attainable GOPS.
    double sensorRate[cap];
    double computeRate[cap];
    std::uint32_t ceilingSlot[cap];
    std::uint8_t bound[cap];
    std::uint64_t stageKind[workload::PipelineBound::maxStages * 3];
    workload::StagePipelinePlan::Scratch planScratch;
};

/**
 * Setup, per-slot state and summary shared by run() and
 * runReference(), which differ only in the per-block body: the
 * batched kernels or the scalar loop. Each slot owns one tally row
 * [bounds(4) | flat ceiling slots | stage * 3 + kind], padded to a
 * cache line; rows are summed after the loop (exact, since the
 * tallies are integers). Outputs are written at their sample index.
 */
class Sampler
{
  public:
    Sampler(const UncertaintySpec &spec, std::size_t count,
            const exec::ParallelOptions &parallel)
        : _spec(spec), _count(count),
          _p_amax(perturbParams(spec.aMaxRelStd)),
          _p_range(perturbParams(spec.rangeRelStd)),
          _p_ai(perturbParams(spec.aiRelStd)),
          _p_compute(perturbParams(spec.computeRelStd)),
          _p_sensor(perturbParams(spec.sensorRelStd))
    {
        if (count < 10)
            throw ModelError("Monte-Carlo run needs >= 10 samples");
        // Compile the per-sample evaluation once: the pipeline path
        // gets a StagePipelinePlan (whose evaluator the scalar loop
        // uses), the flat platform path an EvaluationPlan over the
        // spec profile; the legacy path needs neither.
        if (spec.pipeline) {
            _plan.emplace(*spec.pipeline, *spec.platform);
            _stages = _plan->stageCount();
        } else if (spec.platform) {
            _flatPlan.emplace(*spec.platform, spec.profile);
        }
        if (spec.platform) {
            _computeCeilings = spec.platform->computeCeilings().size();
            _ceilings = _computeCeilings +
                        spec.platform->memoryCeilings().size();
        }
        const std::size_t slots = exec::maxSlots(parallel);
        // Rows padded by a cache line so no two slots' counters
        // ever share one.
        _stride = 4 + _ceilings + _stages * 3 +
                  64 / sizeof(std::uint64_t);
        _tallies.assign(slots * _stride, 0);
        _arenas.resize(slots);
        _vSafe.resize(count);
        _knee.resize(count);
        _roof.resize(count);
    }

    /**
     * The original sample-at-a-time loop over samples [lo, hi):
     * the reference semantics, byte for byte. batched() falls back
     * to it when a kernel validation flag trips, reproducing the
     * scalar error.
     */
    void scalar(std::size_t slot, Rng &rng, std::size_t lo,
                std::size_t hi)
    {
        std::uint64_t *tally = &_tallies[slot * _stride];
        std::uint64_t *ceilings = tally + 4;
        std::uint64_t *stages = ceilings + _ceilings;
        core::F1Analysis analysis;
        workload::PipelineBound pipeline_bound;
        workload::StageEvalOptions eval_options;
        eval_options.opIndex = _spec.opIndex;
        eval_options.measuredFirst = false;
        for (std::size_t i = lo; i < hi; ++i) {
            core::F1Inputs inputs = _spec.nominal;
            inputs.aMax = units::MetersPerSecondSquared(
                inputs.aMax.value() * drawFactor(_p_amax, rng));
            inputs.sensingRange =
                units::Meters(inputs.sensingRange.value() *
                              drawFactor(_p_range, rng));
            if (_plan) {
                // Per-stage path: one shared AI draw scales every
                // annotated stage's intensity, the pipeline's
                // modeled bounds set f_compute, and both the
                // bottleneck's and each stage's binding are tallied.
                eval_options.aiScale = drawFactor(_p_ai, rng);
                _plan->evaluator().evaluateInto(eval_options,
                                                pipeline_bound);
                inputs.computeRate =
                    units::Hertz(pipeline_bound.throughputHz *
                                 drawFactor(_p_compute, rng));
                inputs.computeBinding =
                    pipeline_bound.bottleneckBinding();
                if (inputs.computeBinding.attributed)
                    ++ceilings[flatSlot(inputs.computeBinding)];
                for (std::size_t s = 0; s < _stages; ++s) {
                    const platform::CeilingRef &binding =
                        pipeline_bound.stages[s].binding;
                    const std::size_t kind =
                        !binding.attributed
                            ? 2
                            : (binding.kind ==
                                       platform::CeilingKind::Compute
                                   ? 0
                                   : 1);
                    ++stages[s * 3 + kind];
                }
            } else if (_spec.platform) {
                // Ceiling-family path: the bound at a perturbed
                // arithmetic intensity drives f_compute, so which
                // ceiling binds varies sample to sample. A zero
                // spread draws nothing, so the legacy draw sequence
                // (and its results) is untouched when no platform
                // is configured.
                platform::WorkloadProfile profile = _spec.profile;
                profile.ai = units::OpsPerByte(
                    profile.ai.value() * drawFactor(_p_ai, rng));
                const platform::AttainableBound bound =
                    _spec.platform->attainable(profile, _spec.opIndex);
                inputs.computeRate = units::Hertz(
                    bound.attainable.value() / _spec.workPerFrameGop *
                    drawFactor(_p_compute, rng));
                inputs.computeBinding = bound.binding;
                ++ceilings[flatSlot(bound.binding)];
            } else {
                inputs.computeRate =
                    units::Hertz(inputs.computeRate.value() *
                                 drawFactor(_p_compute, rng));
            }
            inputs.sensorRate = units::Hertz(
                inputs.sensorRate.value() * drawFactor(_p_sensor, rng));

            core::F1Model::analyzeInto(inputs, analysis);
            _vSafe[i] = analysis.safeVelocity.value();
            _knee[i] = analysis.kneeThroughput.value();
            _roof[i] = analysis.roofVelocity.value();
            ++tally[static_cast<std::size_t>(analysis.bound)];
        }
    }

    /**
     * The batched body over samples [lo, hi), in kernelBlock-sized
     * sub-batches: a sequential draw phase (libm exp stays scalar;
     * its vector forms are not bit-exact), a batched bound phase
     * over the compiled plan, and the core::analyzeBlock kernel.
     * Tallies are committed only once a sub-batch validates; on a
     * tripped ok flag the sub-batch reruns through scalar() from a
     * saved RNG state, so its error (and every committed value
     * before it) is the scalar loop's.
     */
    void batched(std::size_t slot, Rng &rng, std::size_t lo,
                 std::size_t hi)
    {
        constexpr std::size_t kernelBlock =
            MonteCarloAnalyzer::kernelBlock;
        Arena &arena = _arenas[slot];
        std::uint64_t *tally = &_tallies[slot * _stride];
        std::uint64_t *ceilings = tally + 4;
        std::uint64_t *stages = ceilings + _ceilings;
        const core::F1Inputs &nominal = _spec.nominal;
        const double nominal_amax = nominal.aMax.value();
        const double nominal_range = nominal.sensingRange.value();
        const double nominal_ai = _spec.profile.ai.value();
        const double nominal_compute = nominal.computeRate.value();
        const double nominal_sensor = nominal.sensorRate.value();
        const double work = _spec.workPerFrameGop;
        const std::size_t op = _spec.opIndex;
        for (std::size_t sub = lo; sub < hi; sub += kernelBlock) {
            const std::size_t m = std::min(hi - sub, kernelBlock);
            // Phase A consumes exactly the scalar draw sequence, so
            // a rescan from this saved state reproduces it.
            Rng rescan_rng = rng;
            bool ok = true;

            // Phase A: sequential draws in the scalar loop's order.
            for (std::size_t i = 0; i < m; ++i) {
                arena.aMax[i] = nominal_amax * drawFactor(_p_amax, rng);
                arena.range[i] =
                    nominal_range * drawFactor(_p_range, rng);
                if (_plan)
                    arena.ai[i] = drawFactor(_p_ai, rng);
                else if (_flatPlan)
                    arena.ai[i] = nominal_ai * drawFactor(_p_ai, rng);
                arena.computeFactor[i] = drawFactor(_p_compute, rng);
                arena.sensorRate[i] =
                    nominal_sensor * drawFactor(_p_sensor, rng);
            }

            // Phase B: batched f_compute evaluation.
            if (_plan) {
                std::fill_n(arena.stageKind, _stages * 3, 0);
                ok = _plan->tryEvaluateBlock(
                    op, false, arena.ai, m, arena.throughput,
                    arena.ceilingSlot, arena.stageKind,
                    arena.planScratch);
                for (std::size_t i = 0; i < m; ++i)
                    arena.computeRate[i] =
                        arena.throughput[i] * arena.computeFactor[i];
            } else if (_flatPlan) {
                ok = _flatPlan->tryEvaluateBlock(
                    op, arena.ai, m, arena.throughput,
                    arena.ceilingSlot);
                for (std::size_t i = 0; i < m; ++i)
                    arena.computeRate[i] = arena.throughput[i] / work *
                                           arena.computeFactor[i];
            } else {
                for (std::size_t i = 0; i < m; ++i)
                    arena.computeRate[i] =
                        nominal_compute * arena.computeFactor[i];
            }

            // Phase C: the F-1 block kernel, writing the output
            // lanes in place.
            ok = core::analyzeBlock(
                     arena.aMax, arena.range, arena.sensorRate,
                     arena.computeRate, nominal.controlRate.value(),
                     nominal.kneeFraction, m, _vSafe.data() + sub,
                     _knee.data() + sub, _roof.data() + sub,
                     arena.bound) &&
                 ok;

            if (!ok) {
                scalar(slot, rescan_rng, sub, sub + m);
                continue;
            }
            for (std::size_t i = 0; i < m; ++i)
                ++tally[arena.bound[i]];
            if (_plan) {
                for (std::size_t i = 0; i < m; ++i) {
                    const std::uint32_t s = arena.ceilingSlot[i];
                    if (s != workload::StagePipelinePlan::measuredSlot)
                        ++ceilings[s];
                }
                for (std::size_t k = 0; k < _stages * 3; ++k)
                    stages[k] += arena.stageKind[k];
            } else if (_flatPlan) {
                for (std::size_t i = 0; i < m; ++i)
                    ++ceilings[arena.ceilingSlot[i]];
            }
        }
    }

    /** Sum the slot rows and build the result. */
    UncertaintyResult summarize()
    {
        std::vector<std::uint64_t> totals(_stride, 0);
        for (std::size_t k = 0; k < _tallies.size(); ++k)
            totals[k % _stride] += _tallies[k];
        const double n = static_cast<double>(_count);
        const auto prob = [&](std::size_t k) {
            return static_cast<double>(totals[k]) / n;
        };

        UncertaintyResult result;
        result.samples = _count;
        using core::BoundType;
        result.probComputeBound =
            prob(static_cast<std::size_t>(BoundType::ComputeBound));
        result.probSensorBound =
            prob(static_cast<std::size_t>(BoundType::SensorBound));
        result.probControlBound =
            prob(static_cast<std::size_t>(BoundType::ControlBound));
        result.probPhysicsBound =
            prob(static_cast<std::size_t>(BoundType::PhysicsBound));
        for (std::size_t k = 0; k < _ceilings; ++k)
            (k < _computeCeilings ? result.probComputeCeilingBinds
                                  : result.probMemoryCeilingBinds)
                .push_back(prob(4 + k));
        result.stageBindings.resize(_stages);
        for (std::size_t s = 0; s < _stages; ++s) {
            const std::size_t base = 4 + _ceilings + s * 3;
            StageBindingStats &stats = result.stageBindings[s];
            stats.stage = _plan->evaluator().stageName(s);
            stats.probComputeBound = prob(base + 0);
            stats.probMemoryBound = prob(base + 1);
            stats.probMeasured = prob(base + 2);
        }
        result.safeVelocity =
            Distribution::fromSamples(std::move(_vSafe));
        result.kneeThroughput =
            Distribution::fromSamples(std::move(_knee));
        result.roofVelocity =
            Distribution::fromSamples(std::move(_roof));
        return result;
    }

  private:
    /** Flat slot of a binding: compute ceilings first. */
    std::size_t flatSlot(const platform::CeilingRef &binding) const
    {
        return binding.kind == platform::CeilingKind::Compute
                   ? binding.index
                   : _computeCeilings + binding.index;
    }

    const UncertaintySpec &_spec;
    std::size_t _count;
    PerturbParams _p_amax, _p_range, _p_ai, _p_compute, _p_sensor;
    std::optional<workload::StagePipelinePlan> _plan;
    std::optional<platform::EvaluationPlan> _flatPlan;
    std::size_t _stages = 0;
    std::size_t _computeCeilings = 0;
    std::size_t _ceilings = 0;
    std::size_t _stride = 0;
    std::vector<std::uint64_t> _tallies;
    std::vector<Arena> _arenas;
    std::vector<double> _vSafe, _knee, _roof;
};

} // namespace

UncertaintyResult
MonteCarloAnalyzer::run(std::size_t count, std::uint64_t seed,
                        const exec::ParallelOptions &parallel) const
{
    Sampler sampler(_spec, count, parallel);
    forEachBlock(count, seed, parallel,
                 [&](std::size_t slot, Rng &rng, std::size_t lo,
                     std::size_t hi) {
                     sampler.batched(slot, rng, lo, hi);
                 });
    return sampler.summarize();
}

UncertaintyResult
MonteCarloAnalyzer::runReference(
    std::size_t count, std::uint64_t seed,
    const exec::ParallelOptions &parallel) const
{
    Sampler sampler(_spec, count, parallel);
    forEachBlock(count, seed, parallel,
                 [&](std::size_t slot, Rng &rng, std::size_t lo,
                     std::size_t hi) {
                     sampler.scalar(slot, rng, lo, hi);
                 });
    return sampler.summarize();
}

} // namespace uavf1::sim
