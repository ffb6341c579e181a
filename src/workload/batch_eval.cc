/**
 * @file
 * StagePipelinePlan implementation.
 *
 * The per-sample arithmetic mirrors
 * StagePipelineEvaluator::evaluateInto() operand for operand; see
 * that function for the rule derivations. Transformations applied
 * here are all bit-exact: stages whose latency is sample-invariant
 * are folded to constants (the scalar path computes measured /
 * frequency from the same operands every call), and annotated
 * stages run through a compiled platform::EvaluationPlan whose own
 * bit-identity contract covers the ceiling walk.
 */

#include "workload/batch_eval.hh"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <limits>
#include <utility>

#include "simd/simd.hh"

namespace uavf1::workload {

namespace {

/**
 * Exact threshold search over the positive-double bit-space: for
 * positive finite doubles the IEEE-754 bit pattern is monotone, so
 * binary search over bits finds the exact first/last double
 * satisfying a monotone predicate in ~64 predicate calls.
 */
template <typename Pred>
double
lowestTrue(Pred pred)
{
    std::uint64_t lo = 1; // Smallest positive subnormal.
    std::uint64_t hi = std::bit_cast<std::uint64_t>(DBL_MAX);
    if (!pred(std::bit_cast<double>(hi)))
        return std::numeric_limits<double>::infinity();
    if (pred(std::bit_cast<double>(lo)))
        return std::bit_cast<double>(lo);
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (pred(std::bit_cast<double>(mid)))
            hi = mid;
        else
            lo = mid;
    }
    return std::bit_cast<double>(hi);
}

/** Largest positive double satisfying a monotone non-increasing
 * predicate; 0 when even the smallest subnormal fails. */
template <typename Pred>
double
highestTrue(Pred pred)
{
    std::uint64_t lo = 1;
    std::uint64_t hi = std::bit_cast<std::uint64_t>(DBL_MAX);
    if (pred(std::bit_cast<double>(hi)))
        return std::bit_cast<double>(hi);
    if (!pred(std::bit_cast<double>(lo)))
        return 0.0;
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (pred(std::bit_cast<double>(mid)))
            lo = mid;
        else
            hi = mid;
    }
    return std::bit_cast<double>(lo);
}

} // namespace

StagePipelinePlan::StagePipelinePlan(
    const SpaPipeline &pipeline,
    const platform::RooflinePlatform &platform)
    : _evaluator(pipeline, platform)
{
    _stageCount = _evaluator.stageCount();
    _onMeasuredPlatform = _evaluator.onMeasuredPlatform();
    _computeCeilingCount =
        _evaluator.platform().computeCeilings().size();

    const auto &points = _evaluator.platform().operatingPoints();
    // RooflinePlatform guarantees at least the nominal point; the
    // empty case mirrors evaluateInto()'s frequency = 1 fallback.
    std::vector<double> frequencies;
    if (points.empty()) {
        frequencies.push_back(1.0);
    } else {
        frequencies.reserve(points.size());
        for (const auto &point : points)
            frequencies.push_back(point.frequencyFraction);
    }
    _opCount = frequencies.size();

    _annotated.resize(_stageCount, 0);
    _workGop.resize(_stageCount, 0.0);
    _measured.resize(_stageCount, 0.0);
    _baseAi.resize(_stageCount, 0.0);
    _planIndex.resize(_stageCount, ~std::size_t{0});
    for (std::size_t s = 0; s < _stageCount; ++s) {
        _measured[s] = _evaluator.stageMeasuredLatency(s);
        if (!_evaluator.stageAnnotated(s))
            continue;
        _annotated[s] = 1;
        _workGop[s] = _evaluator.stageWorkGop(s);
        _baseAi[s] = _evaluator.stageProfile(s).ai.value();
        _planIndex[s] = _plans.size();
        _plans.emplace_back(_evaluator.platform(),
                            _evaluator.stageProfile(s));
    }

    // Clock-scaled measurements, op-major. At a frequency fraction
    // of exactly 1.0 the division is an identity, matching the
    // scalar path's unscaled value bit for bit.
    _scaledMeasured.resize(_opCount * _stageCount, 0.0);
    for (std::size_t op = 0; op < _opCount; ++op)
        for (std::size_t s = 0; s < _stageCount; ++s)
            _scaledMeasured[op * _stageCount + s] =
                _measured[s] / frequencies[op];

    // Whole-block fast path: inside [lo, hi] every annotated stage
    // binds its constant compute roof and passes every per-sample
    // validity check, so the pipeline result collapses to one
    // precomputed constant. The interval endpoints are the exact
    // flip points of the kernel's own (monotone-in-scale)
    // predicates, found by bisection; at the endpoints and beyond
    // the slow path takes over with identical results.
    _fastLo.assign(_opCount,
                   std::numeric_limits<double>::infinity());
    _fastHi.assign(_opCount, 0.0);
    _fastThroughput.assign(_opCount, 0.0);
    _fastBottleneck.assign(_opCount, measuredSlot);
    _fastKind.assign(_opCount * _stageCount, 2);
    for (std::size_t op = 0; op < _opCount; ++op) {
        double lo = std::numeric_limits<double>::denorm_min();
        double hi = DBL_MAX;
        bool valid = true;
        double total = 0.0;
        double bottleneck_lat = 0.0;
        std::uint32_t bottleneck = measuredSlot;
        const double *scaled =
            _scaledMeasured.data() + op * _stageCount;
        for (std::size_t s = 0; s < _stageCount && valid; ++s) {
            double lat;
            std::uint32_t slot;
            std::uint8_t kind;
            if (!_annotated[s]) {
                lat = scaled[s];
                slot = measuredSlot;
                kind = 2;
            } else {
                const platform::EvaluationPlan &plan =
                    _plans[_planIndex[s]];
                const double base_ai = _baseAi[s];
                const double roof = plan.computeRoof(op);
                lat = _workGop[s] / roof;
                slot = plan.computeCeilingSlot(op);
                kind = 0;
                if (_onMeasuredPlatform && lat < scaled[s]) {
                    lat = scaled[s];
                    slot = measuredSlot;
                    kind = 2;
                }
                valid = valid && roof <= DBL_MAX;
                lo = std::max(
                    lo, lowestTrue([&](double scale) {
                        const double a = base_ai * scale;
                        return a > 0.0 && plan.computeBinds(op, a);
                    }));
                hi = std::min(
                    hi, highestTrue([&](double scale) {
                        return base_ai * scale <= 1e300;
                    }));
            }
            valid = valid && lat > 0.0 && lat <= DBL_MAX;
            total += lat;
            if (lat > bottleneck_lat) {
                bottleneck_lat = lat;
                bottleneck = slot;
            }
            _fastKind[op * _stageCount + s] = kind;
        }
        if (valid && lo <= hi) {
            _fastLo[op] = lo;
            _fastHi[op] = hi;
            _fastThroughput[op] = 1.0 / total;
            _fastBottleneck[op] = bottleneck;
        }
    }
}

/**
 * Width-W body over `n % W == 0` samples. Every per-sample loop of
 * the scalar form becomes a stride-W loop of correctly-rounded
 * lane-local ops with the scalar ternaries as select() on compare
 * masks, so the W = 1 and W = nativeWidth instantiations produce
 * the same bits (simd/pack.hh). Slots ride in double lanes; the
 * measured sentinel ~0u is 4294967295.0 exactly, and the narrowing
 * back to uint32 happens per lane in the scalar epilogue.
 *
 * The dispatcher may split one caller block across a W-stride call
 * and a W = 1 tail call; that is output-equivalent to the single
 * scalar block: per-sample outputs are independent, tallies and the
 * ok flag are additive/commutative, and the whole-block fast path
 * agrees bit-for-bit with the slow path inside its interval (the
 * constructor derives it from the kernel's own predicates), so
 * gating it per sub-block cannot change results.
 */
template <std::size_t W>
bool
StagePipelinePlan::evaluateStrided(
    std::size_t op_index, bool measured_first,
    const double *ai_scale, std::size_t n, double *throughput_hz,
    std::uint32_t *bottleneck_slot,
    std::uint64_t *stage_kind_counts, Scratch &scratch) const
{
    using P = simd::Pack<double, W>;
    if (n == 0)
        return true;

    const bool measured_wins =
        measured_first && _onMeasuredPlatform && op_index == 0;

    const P zero = P::broadcast(0.0);
    const P huge = P::broadcast(DBL_MAX);
    const P mslotd =
        P::broadcast(static_cast<double>(measuredSlot));

    // Whole-block fast path: when every scale lands inside the
    // precomputed all-compute-bound interval, the result is the
    // op's constant (see the constructor). The >= / <= gates also
    // reject NaN scales, which must take the slow path to fail
    // validation there.
    const double fast_lo = _fastLo[op_index];
    const double fast_hi = _fastHi[op_index];
    if (!measured_wins && fast_lo <= fast_hi) {
        const P plo = P::broadcast(fast_lo);
        const P phi = P::broadcast(fast_hi);
        bool fast = true;
        for (std::size_t i = 0; i + W <= n; i += W) {
            const P as = P::load(ai_scale + i);
            fast = fast && allTrue((as >= plo) & (as <= phi));
        }
        if (fast) {
            const double fast_throughput =
                _fastThroughput[op_index];
            const std::uint32_t fast_bottleneck =
                _fastBottleneck[op_index];
            for (std::size_t i = 0; i < n; ++i) {
                throughput_hz[i] = fast_throughput;
                bottleneck_slot[i] = fast_bottleneck;
            }
            const std::uint8_t *kinds =
                _fastKind.data() + op_index * _stageCount;
            for (std::size_t s = 0; s < _stageCount; ++s)
                stage_kind_counts[s * 3 + kinds[s]] += n;
            return true;
        }
    }

    // evaluateInto()'s aiScale precondition, accumulated branch-only
    // (> 0 rejects NaN and non-positives, <= DBL_MAX rejects +inf).
    bool ok = true;
    for (std::size_t i = 0; i + W <= n; i += W) {
        const P as = P::load(ai_scale + i);
        ok = ok && allTrue((as > zero) & (as <= huge));
        zero.store(scratch.total + i);
        zero.store(scratch.bottleneckLat + i);
        mslotd.store(scratch.bottleneckSlotD + i);
    }

    const double *scaled =
        _scaledMeasured.data() + op_index * _stageCount;

    for (std::size_t s = 0; s < _stageCount; ++s) {
        if (measured_wins || !_annotated[s]) {
            // Rules 1 and 3b: one latency for every sample.
            const double lat =
                measured_wins ? _measured[s] : scaled[s];
            ok = ok && lat > 0.0 && lat <= DBL_MAX;
            stage_kind_counts[s * 3 + 2] += n;
            const P plat = P::broadcast(lat);
            for (std::size_t i = 0; i + W <= n; i += W) {
                (P::load(scratch.total + i) + plat)
                    .store(scratch.total + i);
                const P bl = P::load(scratch.bottleneckLat + i);
                const auto bm = plat > bl;
                select(bm, plat, bl)
                    .store(scratch.bottleneckLat + i);
                select(bm, mslotd,
                       P::load(scratch.bottleneckSlotD + i))
                    .store(scratch.bottleneckSlotD + i);
            }
            continue;
        }

        // Rules 2 and 3a: modeled bound per sample, floored by the
        // clock-scaled measurement on the measured platform.
        const platform::EvaluationPlan &plan =
            _plans[_planIndex[s]];
        const P pbase = P::broadcast(_baseAi[s]);
        for (std::size_t i = 0; i + W <= n; i += W)
            (pbase * P::load(ai_scale + i)).store(scratch.ai + i);
        ok = plan.tryEvaluateBlock(op_index, scratch.ai, n,
                                   scratch.attainable,
                                   scratch.ceilingSlot) &&
             ok;
        // Widen the plan's slots once; every comparison below stays
        // in the double domain (slots are < 2^32, exact).
        for (std::size_t i = 0; i < n; ++i)
            scratch.ceilingSlotD[i] =
                static_cast<double>(scratch.ceilingSlot[i]);

        const double work = _workGop[s];
        const double floor_lat = scaled[s];
        const bool floored = _onMeasuredPlatform;

        // A compute-bound sample's attainable is the op's constant
        // compute roof, so its latency division — and the floor and
        // kind resolution behind it — collapses to one precomputed
        // value (same operands, same bits as the per-sample form).
        // Only memory-bound samples pay the division.
        const std::uint32_t compute_slot =
            plan.computeCeilingSlot(op_index);
        double compute_lat = work / plan.computeRoof(op_index);
        std::uint32_t compute_resolved = compute_slot;
        if (floored && compute_lat < floor_lat) {
            compute_lat = floor_lat;
            compute_resolved = measuredSlot;
        }
        const bool compute_ok =
            compute_lat > 0.0 && compute_lat <= DBL_MAX;

        const P cslotd =
            P::broadcast(static_cast<double>(compute_slot));
        const P cres =
            P::broadcast(static_cast<double>(compute_resolved));
        const P clat = P::broadcast(compute_lat);
        const P pwork = P::broadcast(work);
        const P pfloor = P::broadcast(floor_lat);

        std::uint64_t n_compute = 0;
        std::uint64_t k_memory = 0;
        std::uint64_t k_measured = 0;
        for (std::size_t i = 0; i + W <= n; i += W) {
            const P slotd = P::load(scratch.ceilingSlotD + i);
            const auto cm = slotd == cslotd;
            // Memory-bound lanes pay the division; compute lanes
            // compute it too but discard it in the select (the op
            // is lane-local and side-effect-free, so the unused
            // lanes cannot perturb anything).
            P else_lat = pwork / P::load(scratch.attainable + i);
            P else_slot = slotd;
            if (floored) {
                const auto fm = else_lat < pfloor;
                else_lat = select(fm, pfloor, else_lat);
                else_slot = select(fm, mslotd, else_slot);
            }
            // Validation applies to memory-bound lanes only; the
            // compute lane's single check happens once below.
            ok = ok &&
                 allTrue(cm | ((else_lat > zero) &
                               (else_lat <= huge)));
            const std::size_t lanes_compute = count(cm);
            const std::size_t lanes_measured =
                count(andnot(cm, else_slot == mslotd));
            n_compute += lanes_compute;
            k_measured += lanes_measured;
            k_memory += W - lanes_compute - lanes_measured;

            const P lat = select(cm, clat, else_lat);
            const P slot = select(cm, cres, else_slot);
            (P::load(scratch.total + i) + lat)
                .store(scratch.total + i);
            const P bl = P::load(scratch.bottleneckLat + i);
            const auto bm = lat > bl;
            select(bm, lat, bl).store(scratch.bottleneckLat + i);
            select(bm, slot,
                   P::load(scratch.bottleneckSlotD + i))
                .store(scratch.bottleneckSlotD + i);
        }
        ok = ok && (n_compute == 0 || compute_ok);
        if (compute_resolved == measuredSlot)
            k_measured += n_compute;
        else
            stage_kind_counts[s * 3 + 0] += n_compute;
        stage_kind_counts[s * 3 + 1] += k_memory;
        stage_kind_counts[s * 3 + 2] += k_measured;
    }

    const P one = P::broadcast(1.0);
    for (std::size_t i = 0; i + W <= n; i += W)
        (one / P::load(scratch.total + i))
            .store(throughput_hz + i);
    for (std::size_t i = 0; i < n; ++i)
        bottleneck_slot[i] = static_cast<std::uint32_t>(
            scratch.bottleneckSlotD[i]);
    return ok;
}

bool
StagePipelinePlan::tryEvaluateBlock(
    std::size_t op_index, bool measured_first,
    const double *ai_scale, std::size_t n, double *throughput_hz,
    std::uint32_t *bottleneck_slot,
    std::uint64_t *stage_kind_counts, Scratch &scratch) const
{
    if (n == 0)
        return true;
    if (n > blockSize || op_index >= _opCount)
        return false;

    if (simd::useNative()) {
        constexpr std::size_t W = simd::nativeWidth;
        const std::size_t main = n - n % W;
        bool ok = evaluateStrided<W>(
            op_index, measured_first, ai_scale, main,
            throughput_hz, bottleneck_slot, stage_kind_counts,
            scratch);
        return evaluateStrided<1>(
                   op_index, measured_first, ai_scale + main,
                   n - main, throughput_hz + main,
                   bottleneck_slot + main, stage_kind_counts,
                   scratch) &&
               ok;
    }
    return evaluateStrided<1>(op_index, measured_first, ai_scale,
                              n, throughput_hz, bottleneck_slot,
                              stage_kind_counts, scratch);
}

void
StagePipelinePlan::throwFirstError(std::size_t op_index,
                                   bool measured_first,
                                   const double *ai_scale,
                                   std::size_t n) const
{
    PipelineBound bound;
    for (std::size_t i = 0; i < n; ++i) {
        StageEvalOptions options;
        options.opIndex = op_index;
        options.measuredFirst = measured_first;
        options.aiScale = ai_scale[i];
        _evaluator.evaluateInto(options, bound);
    }
}

void
StagePipelinePlan::evaluateBlock(
    std::size_t op_index, bool measured_first,
    const double *ai_scale, std::size_t n, double *throughput_hz,
    std::uint32_t *bottleneck_slot,
    std::uint64_t *stage_kind_counts, Scratch &scratch) const
{
    if (!tryEvaluateBlock(op_index, measured_first, ai_scale, n,
                          throughput_hz, bottleneck_slot,
                          stage_kind_counts, scratch)) {
        throwFirstError(op_index, measured_first, ai_scale, n);
    }
}

} // namespace uavf1::workload
