/**
 * @file
 * MonteCarloAnalyzer implementation, and the forEachBlock skeleton
 * it shares with fault campaigns.
 *
 * run() and runReference() share one Sampler (setup, per-slot
 * tallies, summary) on forEachBlock and differ only in the per-block
 * body. run()'s is the batched hot path: kernelBlock-sized
 * sub-batches through a draw phase (Rng::normalBlock, then one
 * lognormal column per spread), the compiled plans and the
 * core::analyzeBlock kernel, every per-sample expression
 * matching the scalar loop operand for operand. runReference()'s is
 * that scalar sample-at-a-time loop, kept as the oracle; the two are
 * bit-identical. A sub-batch that fails a kernel's validation flag
 * is re-run through the scalar loop from a saved RNG state, so the
 * thrown error (and every committed value before it) matches it
 * exactly.
 *
 * Neither keeps a buffer of every sample: a block body writes its
 * outputs into its slot's Arena rows, and one DistributionFold per
 * output takes them as the block ends (block-order moments, and
 * value windows for the order statistics). run() sets the windows
 * from a pilot pass over the run's first 16 blocks when the run is
 * more than 4 pilots long; runReference() keeps every sample.
 */

#include "sim/monte_carlo.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>

#include "core/f1_batch.hh"
#include "platform/evaluation_plan.hh"
#include "simd/pack.hh"
#include "simd/simd.hh"
#include "support/errors.hh"
#include "support/rng.hh"
#include "support/validate.hh"
#include "workload/batch_eval.hh"
#include "workload/stage_eval.hh"

namespace uavf1::sim {

namespace {

/** The summarized percentiles. */
constexpr double kPercentiles[3] = {5.0, 50.0, 95.0};

/** The (lo, lo + 1) rank pairs bracketing p5/p50/p95 of n sorted
 * values, and each percentile's interpolation fraction. */
struct PercentileRanks
{
    std::array<std::size_t, 6> ranks{};
    std::array<double, 3> fracs{};

    explicit PercentileRanks(std::size_t n)
    {
        for (std::size_t i = 0; i < 3; ++i) {
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

/**
 * Pin the order statistics of values[lo, hi) — which hold exactly
 * ranks lo to hi - 1 — at the sorted, distinct positions
 * [first, last), all in [lo, hi). A position at the range's start
 * is its minimum, a scan instead of a partition (the lo + 1 half of
 * a percentile pair). Otherwise the middle position is selected
 * first, so each later partition runs only over its own side; a
 * pinned position is never touched again.
 */
void
pinRanks(std::vector<double> &values, std::size_t lo, std::size_t hi,
         const std::size_t *first, const std::size_t *last)
{
    const auto at = [&](std::size_t k) {
        return values.begin() + static_cast<std::ptrdiff_t>(k);
    };
    for (; first != last && *first == lo; ++first, ++lo)
        std::iter_swap(at(lo), std::min_element(at(lo), at(hi)));
    if (first == last)
        return;
    const std::size_t *mid = first + (last - first - 1) / 2;
    std::nth_element(at(lo), at(*mid), at(hi));
    pinRanks(values, lo, *mid, first, mid);
    pinRanks(values, *mid + 1, hi, mid + 1, last);
}

/**
 * The order statistics of `values` at each of `positions` (each <
 * values.size()), in that order. Reorders `values`.
 */
std::vector<double>
orderStatistics(std::vector<double> &values,
                const std::vector<std::size_t> &positions)
{
    std::vector<std::size_t> sorted = positions;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()),
                 sorted.end());
    pinRanks(values, 0, values.size(), sorted.data(),
             sorted.data() + sorted.size());
    std::vector<double> stat;
    stat.reserve(positions.size());
    for (const std::size_t k : positions)
        stat.push_back(values[k]);
    return stat;
}

/** p5/p50/p95 of all of `values` into `out`, by selection.
 * Reorders `values`. */
void
selectPercentiles(std::vector<double> &values, Distribution &out)
{
    const PercentileRanks percentiles(values.size());
    const std::vector<double> values_at = orderStatistics(
        values, {percentiles.ranks.begin(), percentiles.ranks.end()});
    std::array<double, 6> stat{};
    std::copy(values_at.begin(), values_at.end(), stat.begin());
    percentiles.interpolate(stat, out);
}

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
    // pairs bracketing p5/p50/p95 — selected as an unbounded
    // DistributionFold selects them.
    selectPercentiles(samples, out);
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

namespace {

/**
 * Sort values[0, n) against the three windows, W lanes at a time:
 * add the number of values below, inside and above window j to
 * counts[j][0..2], and append the values inside it to kept[j]
 * unless it is a single value (lo == hi, a tie: its count says it
 * all). Counts ride in double lanes (exact below 2^53). Most packs
 * have no lane to keep and take no per-lane branch.
 */
template <std::size_t W>
void
windowStrides(const double *values, std::size_t n,
              const DistributionFold::Windows &windows,
              std::array<std::array<double, 3>, 3> &counts,
              std::array<std::vector<double>, 3> &kept)
{
    using P = simd::Pack<double, W>;
    const P one = P::broadcast(1.0);
    const P zero = P::broadcast(0.0);
    P lo[3], hi[3], lanes[3][3];
    bool stores[3];
    for (std::size_t j = 0; j < 3; ++j) {
        lo[j] = P::broadcast(windows[j].first);
        hi[j] = P::broadcast(windows[j].second);
        for (P &lane : lanes[j])
            lane = zero;
        stores[j] = windows[j].first < windows[j].second;
    }
    for (std::size_t i = 0; i + W <= n; i += W) {
        const P v = P::load(values + i);
        std::size_t to_keep = 0;
        for (std::size_t j = 0; j < 3; ++j) {
            const auto inside = (v >= lo[j]) & (v <= hi[j]);
            lanes[j][0] = lanes[j][0] + select(v < lo[j], one, zero);
            lanes[j][1] = lanes[j][1] + select(inside, one, zero);
            lanes[j][2] = lanes[j][2] + select(v > hi[j], one, zero);
            if (stores[j])
                to_keep += count(inside);
        }
        if (to_keep == 0)
            continue;
        for (std::size_t l = i; l < i + W; ++l) {
            for (std::size_t j = 0; j < 3; ++j) {
                if (stores[j] && values[l] >= windows[j].first &&
                    values[l] <= windows[j].second)
                    kept[j].push_back(values[l]);
            }
        }
    }
    for (std::size_t j = 0; j < 3; ++j) {
        for (std::size_t k = 0; k < 3; ++k) {
            double lane[W];
            lanes[j][k].store(lane);
            for (const double c : lane)
                counts[j][k] += c;
        }
    }
}

/** Window half-width, in binomial standard deviations of a pilot
 * rank. */
constexpr double windowSigmas = 6.0;

/** Pilot samples run() derives its fold windows from. */
constexpr std::size_t pilotSamples = 16 * sampleBlock;

/** Fold windows, one set per output, that keep every sample. */
std::array<DistributionFold::Windows, 3>
keepEverySample()
{
    const DistributionFold::Windows all = DistributionFold::unbounded();
    return {all, all, all};
}

} // namespace

DistributionFold::Windows
DistributionFold::unbounded()
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    Windows windows;
    windows.fill({-inf, inf});
    return windows;
}

DistributionFold::DistributionFold(std::size_t count,
                                   std::size_t slots,
                                   const Windows &windows)
    : _count(count), _windows(windows), _slots(slots),
      _partials((count + sampleBlock - 1) / sampleBlock)
{
    if (count == 0)
        throw ModelError("distribution requires samples");
    for (const auto &[lo, hi] : windows) {
        if (!(lo <= hi))
            throw ModelError("distribution windows need lo <= hi");
    }
    if (std::find(windows.begin(), windows.end(), unbounded()[0]) !=
        windows.end())
        _all.resize(count);
}

void
DistributionFold::fold(std::size_t slot, std::size_t lo,
                       const double *values, std::size_t n)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sum += values[i];
    const double mean = sum / static_cast<double>(n);
    double m2 = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        m2 += (values[i] - mean) * (values[i] - mean);
    _partials[lo / sampleBlock] = {n, mean, m2};

    if (!_all.empty()) {
        if (std::any_of(values, values + n,
                        [](double v) { return std::isnan(v); }))
            throw ModelError("distribution values must not be NaN");
        std::copy(values, values + n,
                  _all.begin() + static_cast<std::ptrdiff_t>(lo));
        return;
    }
    Slot &state = _slots[slot];
    std::array<std::array<double, 3>, 3> counts{};
    std::size_t main = 0;
    if (simd::useNative()) {
        main = n - n % simd::nativeWidth;
        windowStrides<simd::nativeWidth>(values, main, _windows,
                                         counts, state.kept);
    }
    windowStrides<1>(values + main, n - main, _windows, counts,
                     state.kept);
    for (std::size_t j = 0; j < 3; ++j) {
        // NaN compares false on every side: it alone goes missing.
        if (counts[j][0] + counts[j][1] + counts[j][2] !=
            static_cast<double>(n))
            throw ModelError("distribution values must not be NaN");
        state.below[j] += static_cast<std::uint64_t>(counts[j][0]);
        state.inside[j] += static_cast<std::uint64_t>(counts[j][1]);
    }
}

std::vector<double>
DistributionFold::gather(std::size_t j)
{
    std::size_t total = 0;
    for (const Slot &state : _slots)
        total += state.kept[j].size();
    std::vector<double> kept = std::move(_slots[0].kept[j]);
    kept.reserve(total);
    for (std::size_t slot = 1; slot < _slots.size(); ++slot) {
        std::vector<double> &part = _slots[slot].kept[j];
        kept.insert(kept.end(), part.begin(), part.end());
        part = {};
    }
    return kept;
}

std::optional<Distribution>
DistributionFold::finish()
{
    // Chan et al.: (na, ma, Ma) and (nb, mb, Mb) merge to mean
    // ma + d * nb / n and M2 Ma + Mb + d^2 * na * nb / n, for
    // d = mb - ma and n = na + nb; applied in block order.
    Moments total = _partials.front();
    for (std::size_t b = 1; b < _partials.size(); ++b) {
        const Moments &next = _partials[b];
        const double na = static_cast<double>(total.n);
        const double nb = static_cast<double>(next.n);
        const double n = na + nb;
        const double delta = next.mean - total.mean;
        total.mean += delta * nb / n;
        total.m2 += next.m2 + delta * delta * na * nb / n;
        total.n += next.n;
    }
    Distribution out;
    out.mean = total.mean;
    out.stddev =
        _count > 1
            ? std::sqrt(total.m2 / static_cast<double>(_count - 1))
            : 0.0;

    if (!_all.empty()) {
        selectPercentiles(_all, out);
        return out;
    }
    const PercentileRanks percentiles(_count);
    std::array<double, 6> stat{};
    // Rank r lies in window j when below_j <= r < below_j + inside_j.
    std::array<bool, 6> found{};
    for (std::size_t j = 0; j < 3; ++j) {
        std::uint64_t below = 0;
        std::uint64_t inside = 0;
        for (const Slot &state : _slots) {
            below += state.below[j];
            inside += state.inside[j];
        }
        std::vector<std::size_t> which;
        std::vector<std::size_t> positions;
        for (std::size_t i = 0; i < 6; ++i) {
            const std::size_t r = percentiles.ranks[i];
            if (!found[i] && r >= below && r - below < inside) {
                which.push_back(i);
                positions.push_back(r - below);
                found[i] = true;
            }
        }
        if (_windows[j].first == _windows[j].second) {
            // A tie window keeps no values: they all equal lo.
            for (const std::size_t i : which)
                stat[i] = _windows[j].first;
        } else if (!which.empty()) {
            std::vector<double> kept = gather(j);
            const std::vector<double> values =
                orderStatistics(kept, positions);
            for (std::size_t k = 0; k < which.size(); ++k)
                stat[which[k]] = values[k];
        }
    }
    if (std::find(found.begin(), found.end(), false) != found.end())
        return std::nullopt;
    percentiles.interpolate(stat, out);
    return out;
}

DistributionFold::Windows
DistributionFold::pilotWindows()
{
    if (_all.empty())
        throw ModelError("a pilot fold needs unbounded windows");
    const double n = static_cast<double>(_all.size());
    // Each percentile's window spans pilot positions
    // [floor(c - margin), ceil(c + margin) + 1] around its centre
    // c = q (n - 1) (the + 1 covers the lo + 1 rank); a position
    // past the pilot is an infinite edge.
    Windows windows = unbounded();
    std::vector<std::size_t> positions;
    std::vector<double *> edges;
    for (std::size_t i = 0; i < 3; ++i) {
        const double q = kPercentiles[i] / 100.0;
        const double centre = q * (n - 1.0);
        const double margin =
            windowSigmas * std::sqrt(n * q * (1.0 - q));
        const double lo = std::floor(centre - margin);
        const double hi = std::ceil(centre + margin) + 1.0;
        if (lo >= 0.0) {
            positions.push_back(static_cast<std::size_t>(lo));
            edges.push_back(&windows[i].first);
        }
        if (hi <= n - 1.0) {
            positions.push_back(static_cast<std::size_t>(hi));
            edges.push_back(&windows[i].second);
        }
    }
    const std::vector<double> values = orderStatistics(_all, positions);
    for (std::size_t k = 0; k < edges.size(); ++k)
        *edges[k] = values[k];
    return windows;
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

/** Per-slot scratch, reused across blocks: the block's three
 * output rows, and for the batched path one sub-batch of SoA lanes
 * plus the plan scratch. Aligned to the widest vector the build
 * could select so the kernels' stride loads never split a cache
 * line. */
struct alignas(64) Arena
{
    /** Outputs of the current block; sample i lands at
     * i % sampleBlock. */
    double vSafe[sampleBlock];
    double knee[sampleBlock];
    double roof[sampleBlock];

    static constexpr std::size_t cap =
        MonteCarloAnalyzer::kernelBlock;
    static_assert(cap % simd::nativeWidth == 0,
                  "native width must divide the kernel block");
    /** The sub-batch's standard normals, sample-major: sample i's
     * draws are z[i * draws, (i + 1) * draws), one per active
     * spread (at most five). */
    double z[cap * 5];
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
 * tallies are integers). A block's outputs go to its slot's Arena
 * rows, and three DistributionFolds take them as the block ends.
 */
class Sampler
{
  public:
    Sampler(const UncertaintySpec &spec, std::size_t count,
            const exec::ParallelOptions &parallel)
        : _spec(spec), _count(count),
          _p_amax(perturbParams(spec.aMaxRelStd)),
          _p_range(perturbParams(spec.rangeRelStd)),
          // Only the platform paths draw the AI factor.
          _p_ai(perturbParams(spec.platform ? spec.aiRelStd : 0.0)),
          _p_compute(perturbParams(spec.computeRelStd)),
          _p_sensor(perturbParams(spec.sensorRelStd)),
          _draws(_p_amax.active + _p_range.active + _p_ai.active +
                 _p_compute.active + _p_sensor.active)
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
        // Default-initialized: a small run never touches the pages
        // of the output rows it does not fill.
        _arenas.reset(new Arena[slots]);
        _slots = slots;
    }

    /** A block body: scalar() or batched(). */
    using Body = void (Sampler::*)(std::size_t, Rng &, std::size_t,
                                   std::size_t);

    /**
     * One sampling pass over samples [0, count) with fresh tallies
     * and folds: each block runs `body`, then the three folds take
     * its rows. run() passes a pilot prefix before the full run.
     */
    void pass(std::size_t count, std::uint64_t seed,
              const exec::ParallelOptions &parallel, Body body,
              const std::array<DistributionFold::Windows, 3> &windows)
    {
        std::fill(_tallies.begin(), _tallies.end(), 0);
        _folds.clear();
        for (const DistributionFold::Windows &w : windows)
            _folds.emplace_back(count, _slots, w);
        forEachBlock(count, seed, parallel,
                     [&](std::size_t slot, Rng &rng, std::size_t lo,
                         std::size_t hi) {
                         (this->*body)(slot, rng, lo, hi);
                         const Arena &arena = _arenas[slot];
                         _folds[0].fold(slot, lo, arena.vSafe, hi - lo);
                         _folds[1].fold(slot, lo, arena.knee, hi - lo);
                         _folds[2].fold(slot, lo, arena.roof, hi - lo);
                     });
    }

    /** Each fold's windows for the full run, after a pilot pass. */
    std::array<DistributionFold::Windows, 3> pilotWindows()
    {
        return {_folds[0].pilotWindows(), _folds[1].pilotWindows(),
                _folds[2].pilotWindows()};
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
        Arena &arena = _arenas[slot];
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
            arena.vSafe[i % sampleBlock] = analysis.safeVelocity.value();
            arena.knee[i % sampleBlock] =
                analysis.kneeThroughput.value();
            arena.roof[i % sampleBlock] = analysis.roofVelocity.value();
            ++tally[static_cast<std::size_t>(analysis.bound)];
        }
    }

    /**
     * The batched body over samples [lo, hi), in kernelBlock-sized
     * sub-batches: a draw phase (one normalBlock call, then one
     * scalar libm exp column per active spread; exp's vector forms
     * are not bit-exact), a batched bound phase over the compiled
     * plan, and the core::analyzeBlock kernel.
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

            // Phase A: the scalar loop's normals in its order (one
            // per active spread per sample), then one lognormal
            // factor column per spread.
            rng.normalBlock(arena.z, m * _draws);
            std::size_t column = 0;
            factorColumn(_p_amax, nominal_amax, arena.z, m, column,
                         arena.aMax);
            factorColumn(_p_range, nominal_range, arena.z, m, column,
                         arena.range);
            if (_plan || _flatPlan)
                factorColumn(_p_ai, _plan ? 1.0 : nominal_ai, arena.z,
                             m, column, arena.ai);
            factorColumn(_p_compute, 1.0, arena.z, m, column,
                         arena.computeFactor);
            factorColumn(_p_sensor, nominal_sensor, arena.z, m, column,
                         arena.sensorRate);

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
            // rows in place.
            const std::size_t row = sub % sampleBlock;
            ok = core::analyzeBlock(
                     arena.aMax, arena.range, arena.sensorRate,
                     arena.computeRate, nominal.controlRate.value(),
                     nominal.kneeFraction, m, arena.vSafe + row,
                     arena.knee + row, arena.roof + row, arena.bound) &&
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

    /** Sum the slot rows and build the result; nullopt when a
     * percentile rank missed its fold window. */
    std::optional<UncertaintyResult> summarize()
    {
        std::optional<Distribution> outputs[3];
        for (std::size_t k = 0; k < 3; ++k) {
            outputs[k] = _folds[k].finish();
            if (!outputs[k])
                return std::nullopt;
        }
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
        result.safeVelocity = *outputs[0];
        result.kneeThroughput = *outputs[1];
        result.roofVelocity = *outputs[2];
        return result;
    }

  private:
    /**
     * out[i] = nominal * drawFactor(p) for the m samples of a
     * sub-batch, the factor's normal read from column `column` of
     * the sample-major z (which then moves to the next column). An
     * inactive spread reads no column and gives nominal * 1.0.
     */
    void factorColumn(const PerturbParams &p, double nominal,
                      const double *z, std::size_t m,
                      std::size_t &column, double *out) const
    {
        if (!p.active) {
            std::fill_n(out, m, nominal * 1.0);
            return;
        }
        for (std::size_t i = 0; i < m; ++i)
            out[i] = nominal *
                     std::exp(p.mu + p.sqrtSigma * z[i * _draws + column]);
        ++column;
    }

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
    std::size_t _draws; ///< Normals per sample: the active spreads.
    std::optional<workload::StagePipelinePlan> _plan;
    std::optional<platform::EvaluationPlan> _flatPlan;
    std::size_t _stages = 0;
    std::size_t _computeCeilings = 0;
    std::size_t _ceilings = 0;
    std::size_t _stride = 0;
    std::vector<std::uint64_t> _tallies;
    std::size_t _slots = 0;
    std::unique_ptr<Arena[]> _arenas;
    std::vector<DistributionFold> _folds;
};

} // namespace

UncertaintyResult
MonteCarloAnalyzer::run(std::size_t count, std::uint64_t seed,
                        const exec::ParallelOptions &parallel) const
{
    Sampler sampler(_spec, count, parallel);
    std::array<DistributionFold::Windows, 3> windows = keepEverySample();
    // The pilot is blocks 0..15 of this very run (a full block
    // depends only on (seed, b)); small runs keep every sample.
    if (count > 4 * pilotSamples) {
        sampler.pass(pilotSamples, seed, parallel, &Sampler::batched,
                     windows);
        windows = sampler.pilotWindows();
    }
    sampler.pass(count, seed, parallel, &Sampler::batched, windows);
    if (std::optional<UncertaintyResult> result = sampler.summarize())
        return *result;
    // A rank missed its window: keep every sample this time, which
    // gives the very same result.
    sampler.pass(count, seed, parallel, &Sampler::batched,
                 keepEverySample());
    return *sampler.summarize();
}

UncertaintyResult
MonteCarloAnalyzer::runReference(
    std::size_t count, std::uint64_t seed,
    const exec::ParallelOptions &parallel) const
{
    Sampler sampler(_spec, count, parallel);
    sampler.pass(count, seed, parallel, &Sampler::scalar,
                 keepEverySample());
    return *sampler.summarize();
}

} // namespace uavf1::sim
