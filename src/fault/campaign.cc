/**
 * @file
 * FaultCampaign implementation.
 *
 * A sample's outcome is a pure function of which faults fired, so
 * run() never evaluates a sample: it folds each sample's uniforms
 * into one joint activation mask (bit j = fault j fired) and counts
 * the masks. Each occupied mask is then evaluated once through the
 * same scalar outcome logic the per-sample reference loop uses, and
 * every output follows from (outcome, count) pairs: integer tallies
 * for rates and bindings, Distribution::fromCounts for v_safe.
 * runReference() keeps the mission-at-a-time loop as the oracle; if
 * an occupied outcome fails F1 validation, run() reruns it so the
 * thrown error is the scalar path's first one.
 *
 * The degradation curve counts one firing-level signature per sample
 * for many levels at once (see SignaturePass) and expands the
 * occupied signatures into each level's mask histogram; run() is its
 * one-level case, where the signature is the mask.
 */

#include "fault/campaign.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>

#include "support/errors.hh"
#include "support/validate.hh"
#include "workload/stage_eval.hh"

namespace uavf1::fault {

namespace {

/** Samples whose uniforms a pass draws at a time. */
constexpr std::size_t drawSamples = 128;

/** Cells of a signature grid over [0, 1). A power of two, so
 * u * gridCells is exact and its floor is u's cell. */
constexpr std::size_t gridCells = 1024;

/** Grid value of a cell that a threshold splits: its samples fall
 * back to exact comparisons. */
constexpr std::uint16_t splitCell = 0xFFFF;

/** Most signatures one pass counts per slot. */
constexpr std::size_t maxSignatures = std::size_t{1}
                                      << FaultCampaign::maxFaults;

// With one fault a grid cell holds a level count; it must never
// read as a split cell. (At two or more faults the pass size keeps
// every term below 2^16 - 1.)
static_assert(FaultCampaign::maxCurveLevels < splitCell);

/** (base)^exponent, or maxSignatures + 1 once it exceeds that. */
std::size_t
cappedPower(std::size_t base, std::size_t exponent)
{
    std::size_t power = 1;
    for (std::size_t j = 0; j < exponent && power <= maxSignatures; ++j)
        power *= base;
    return std::min(power, maxSignatures + 1);
}

/**
 * One sampling pass over `rows` severity levels. Every row sees the
 * same uniforms, and fault j's thresholds are nondecreasing in the
 * row (min(1, p_j * scale) with a nondecreasing scale), so a uniform
 * u fires fault j at exactly the top c_j = #{r : u < t_j[r]} rows.
 * The digits c_j in base rows + 1 form the sample's signature,
 * sum_j c_j * (rows + 1)^j, which fixes its activation mask at every
 * row: counting signatures takes one counter bump per sample at any
 * row count. With one row the signature is the mask itself.
 */
class SignaturePass
{
  public:
    /** `thresholds` is level-major: row r holds one threshold per
     * fault, in fault order. */
    SignaturePass(const std::vector<double> &thresholds,
                  std::size_t faults, std::size_t rows)
        : _faults(faults), _rows(rows), _columns(faults * rows),
          _weight(faults)
    {
        for (std::size_t j = 0; j < faults; ++j) {
            _weight[j] = static_cast<std::uint32_t>(_signatures);
            _signatures *= rows + 1;
            for (std::size_t r = 0; r < rows; ++r)
                _columns[j * rows + r] = thresholds[r * faults + j];
        }
        if (rows == 1)
            return; // Compared directly; see countRows().
        // Cell k holds [k, k + 1) / gridCells. A threshold at or
        // below its low edge never fires there and one at or above
        // its high edge always does, so only a threshold strictly
        // inside splits the cell.
        _grid.resize(faults * gridCells);
        for (std::size_t j = 0; j < faults; ++j) {
            const double *t = &_columns[j * rows];
            for (std::size_t k = 0; k < gridCells; ++k) {
                const double lo =
                    static_cast<double>(k) / static_cast<double>(gridCells);
                const double hi = static_cast<double>(k + 1) /
                                  static_cast<double>(gridCells);
                const bool split = std::upper_bound(t, t + rows, lo) !=
                                   std::lower_bound(t, t + rows, hi);
                _grid[j * gridCells + k] =
                    split ? splitCell
                          : static_cast<std::uint16_t>(digit(j, lo));
            }
        }
    }

    /** Counters a pass histogram holds: (rows + 1)^faults. */
    std::size_t signatures() const { return _signatures; }

    /** Fault j's term of the signature at uniform u, by exact
     * comparisons: c_j * (rows + 1)^j. */
    std::uint32_t digit(std::size_t j, double u) const
    {
        const double *t = &_columns[j * _rows];
        const auto silent = std::upper_bound(t, t + _rows, u) - t;
        return static_cast<std::uint32_t>(
                   _rows - static_cast<std::size_t>(silent)) *
               _weight[j];
    }

    /**
     * Count the signatures of `n` samples drawn from `rng`: one
     * uniform per fault per sample, in fault order (exactly the
     * scalar stream); sample i bumps hist[signature].
     */
    void count(Rng rng, std::size_t n, double *draw,
               std::uint64_t *hist) const
    {
        if (_rows == 1)
            countRows<true>(rng, n, draw, hist);
        else
            countRows<false>(rng, n, draw, hist);
    }

    /**
     * Expand a signature histogram into each row's 2^faults mask
     * histogram, row after row. Fault j fires from row rows - c_j
     * on, so walking one signature's faults in that order, each
     * turn-on moves the signature's count from the mask before it to
     * the mask after it, at that row. The moves form a difference
     * table that a running sum down the rows turns into the
     * histograms: O(occupied * faults + rows * 2^faults). Unsigned
     * wraparound is exact, and every running sum is a true count.
     */
    std::vector<std::uint64_t> masks(const std::uint64_t *hist) const
    {
        const std::size_t mask_count = std::size_t{1} << _faults;
        std::vector<std::uint64_t> out(_rows * mask_count, 0);
        std::array<std::pair<std::size_t, std::size_t>,
                   FaultCampaign::maxFaults>
            turn_on; // (row, fault), in firing order.
        for (std::size_t s = 0; s < _signatures; ++s) {
            const std::uint64_t n = hist[s];
            if (n == 0)
                continue;
            std::size_t events = 0;
            std::size_t rest = s;
            for (std::size_t j = 0; j < _faults; ++j) {
                const std::size_t c = rest % (_rows + 1);
                rest /= _rows + 1;
                if (c > 0)
                    turn_on[events++] = {_rows - c, j};
            }
            std::sort(turn_on.begin(), turn_on.begin() + events);
            std::size_t mask = 0;
            out[0] += n;
            for (std::size_t e = 0; e < events; ++e) {
                std::uint64_t *row = &out[turn_on[e].first * mask_count];
                row[mask] -= n;
                mask |= std::size_t{1} << turn_on[e].second;
                row[mask] += n;
            }
        }
        for (std::size_t c = mask_count; c < out.size(); ++c)
            out[c] += out[c - mask_count];
        return out;
    }

  private:
    template <bool OneRow>
    void countRows(Rng &rng, std::size_t n, double *draw,
                   std::uint64_t *hist) const
    {
        // Locals, so the counter stores cannot alias them.
        const std::size_t faults = _faults;
        const double *thresholds = _columns.data();
        const std::uint16_t *grid = _grid.data();
        for (std::size_t sub = 0; sub < n; sub += drawSamples) {
            const std::size_t m = std::min(n - sub, drawSamples);
            rng.uniformBlock(draw, m * faults);
            for (std::size_t i = 0; i < m; ++i) {
                const double *u = draw + i * faults;
                std::size_t signature = 0;
                if constexpr (OneRow) {
                    for (std::size_t j = 0; j < faults; ++j)
                        signature |=
                            static_cast<std::size_t>(u[j] < thresholds[j])
                            << j;
                } else {
                    bool split = false;
                    for (std::size_t j = 0; j < faults; ++j) {
                        const std::uint16_t cell =
                            grid[j * gridCells +
                                 static_cast<std::size_t>(
                                     u[j] * static_cast<double>(gridCells))];
                        split |= cell == splitCell;
                        signature += cell;
                    }
                    if (split) [[unlikely]] {
                        signature = 0;
                        for (std::size_t j = 0; j < faults; ++j)
                            signature += digit(j, u[j]);
                    }
                }
                ++hist[signature];
            }
        }
    }

    std::size_t _faults;
    std::size_t _rows;
    std::size_t _signatures = 1;
    /** Fault-major thresholds: column j is fault j's rows. */
    std::vector<double> _columns;
    /** (rows + 1)^j: the weight of fault j's digit. */
    std::vector<std::uint32_t> _weight;
    /** Fault-major grids of gridCells cells, each holding the digit
     * term of every uniform in it, or splitCell. Empty for one row. */
    std::vector<std::uint16_t> _grid;
};

} // namespace

FaultCampaign::FaultCampaign(CampaignSpec spec) : _spec(std::move(spec))
{
    // Validate the nominal by constructing the model once.
    (void)core::F1Model(_spec.nominal);
    requireNonNegative(_spec.probabilityScale, "probabilityScale");
    requireFinite(_spec.probabilityScale, "probabilityScale");

    for (std::size_t j = 0; j < _spec.faults.size(); ++j) {
        validateFaultSpec(_spec.faults[j]);
        switch (layerOf(_spec.faults[j].kind)) {
          case FaultLayer::Platform:
            _platformFaults.push_back(j);
            break;
          case FaultLayer::Pipeline:
            _pipelineFaults.push_back(j);
            break;
          case FaultLayer::Sensor:
            _sensorFaults.push_back(j);
            break;
        }
    }

    // A sample's outcome is one joint activation mask counted in a
    // 2^faults histogram, so the total is capped.
    if (_spec.faults.size() > maxFaults) {
        throw ModelError(
            "fault campaign supports at most " +
            std::to_string(maxFaults) + " faults in total, got " +
            std::to_string(_spec.faults.size()));
    }
    // Each layer's fault subsets are enumerated into a variant
    // table indexed by activation mask, so the per-layer count is
    // capped to keep the tables small.
    constexpr std::size_t max_per_layer = 8;
    if (_platformFaults.size() > max_per_layer ||
        _pipelineFaults.size() > max_per_layer) {
        throw ModelError(
            "fault campaign supports at most 8 faults per layer");
    }

    if (!_platformFaults.empty() && !_spec.platform) {
        throw ModelError(
            "fault '" +
            _spec.faults[_platformFaults.front()].name +
            "' perturbs the platform layer, but the campaign has "
            "no RooflinePlatform configured");
    }
    if (!_pipelineFaults.empty() && !_spec.pipeline) {
        throw ModelError(
            "fault '" +
            _spec.faults[_pipelineFaults.front()].name +
            "' perturbs the SPA pipeline, but the campaign has no "
            "pipeline configured");
    }

    if (_spec.platform) {
        requirePositive(_spec.workPerFrameGop, "workPerFrameGop");
        // Surface profile/operating-point problems once up front.
        (void)_spec.platform->attainable(_spec.profile,
                                         _spec.opIndex);
    }
    for (const FaultSpec &fault : _spec.faults) {
        if (fault.kind == FaultKind::CeilingDerate) {
            const std::size_t limit =
                fault.ceilingKind == platform::CeilingKind::Compute
                    ? _spec.platform->computeCeilings().size()
                    : _spec.platform->memoryCeilings().size();
            if (fault.ceilingIndex >= limit) {
                throw ModelError(
                    "ceilingIndex of fault '" + fault.name +
                    "' is out of range for the " +
                    std::string(toString(fault.ceilingKind)) +
                    " ceilings of " + _spec.platform->name());
            }
        }
        if (!resolvesStage(fault.kind))
            continue;
        // Only a stage-scoped platform fault gets here without a
        // pipeline; the pipeline layer was checked above.
        if (!_spec.pipeline) {
            throw ModelError(
                "fault '" + fault.name + "' (" + toString(fault.kind) +
                ") is scoped to stage '" + fault.stage +
                "', but the campaign has no SPA pipeline "
                "configured to resolve the stage against");
        }
        const workload::SpaStage &stage =
            _spec.pipeline->stages()[_spec.pipeline->stageIndex(
                fault.stage)];
        if (layerOf(fault.kind) != FaultLayer::Platform)
            continue;
        if (!stage.annotated()) {
            throw ModelError(
                "stage '" + fault.stage + "' named by fault '" +
                fault.name +
                "' carries no roofline annotation, so a "
                "stage-scoped platform fault cannot reach it "
                "(the stage has no workload profile to derate)");
        }
        if (fault.kind == FaultKind::StageTrafficInflation) {
            const std::size_t limit = std::min(
                _spec.platform->memoryCeilings().size(),
                platform::WorkloadProfile::maxMemoryLevels);
            if (fault.ceilingIndex >= limit) {
                throw ModelError(
                    "ceilingIndex of fault '" + fault.name +
                    "' does not name a memory level of " +
                    _spec.platform->name());
            }
        }
    }

    if (_spec.pipeline) {
        _stageCount = _spec.pipeline->stages().size();
        _stageNames = _spec.pipeline->stageNames();
    }
    if (_spec.platform) {
        precomputePlatformVariants();
    } else if (_spec.pipeline) {
        // Without a platform the one base row is the measured
        // latencies.
        for (const auto &stage : _spec.pipeline->stages())
            _stageBase.push_back(stage.latency.value());
    }
    if (_spec.pipeline)
        precomputePipelineVariants();
}

void
FaultCampaign::precomputePlatformVariants()
{
    const platform::RooflinePlatform &machine = *_spec.platform;
    const std::size_t masks = std::size_t{1}
                              << _platformFaults.size();
    _platformVariants.reserve(masks);
    _stageBase.assign(masks * _stageCount, 0.0);
    _stageKind.assign(masks * _stageCount, StageKind::Measured);
    for (std::size_t mask = 0; mask < masks; ++mask) {
        platform::RooflinePlatform::Spec degraded;
        degraded.name = machine.name();
        degraded.description = machine.description();
        degraded.computeCeilings = machine.computeCeilings();
        degraded.memoryCeilings = machine.memoryCeilings();
        degraded.operatingPoints = machine.operatingPoints();

        double throttle_floor = 1.0;
        workload::DvfsModel::Params throttle_law;
        bool throttled = false;
        bool op_lost = false;
        for (std::size_t bit = 0; bit < _platformFaults.size();
             ++bit) {
            if ((mask & (std::size_t{1} << bit)) == 0)
                continue;
            const FaultSpec &fault =
                _spec.faults[_platformFaults[bit]];
            switch (fault.kind) {
              case FaultKind::CeilingDerate:
                if (fault.ceilingKind ==
                    platform::CeilingKind::Compute) {
                    auto &ceiling =
                        degraded.computeCeilings[fault.ceilingIndex];
                    ceiling.peak = units::Gops(
                        ceiling.peak.value() * fault.derate);
                } else {
                    auto &ceiling =
                        degraded.memoryCeilings[fault.ceilingIndex];
                    ceiling.bandwidth = units::GigabytesPerSecond(
                        ceiling.bandwidth.value() * fault.derate);
                }
                break;
              case FaultKind::ThermalThrottle:
                // The worst active throttle wins.
                if (!throttled ||
                    fault.dvfs.minFrequencyFraction <
                        throttle_floor) {
                    throttle_floor =
                        fault.dvfs.minFrequencyFraction;
                    throttle_law = fault.dvfs;
                }
                throttled = true;
                break;
              case FaultKind::OperatingPointLoss:
                op_lost = true;
                break;
              default:
                break;
            }
        }

        PlatformVariant variant;
        std::size_t op_index = _spec.opIndex;
        if (throttled) {
            // Thermal protection pins the clock at the DVFS floor
            // (never *raising* it), with the TDP the CMOS power law
            // predicts there. A throttle preempts operating-point
            // choice, so a simultaneous op loss changes nothing.
            auto &point = degraded.operatingPoints[op_index];
            const double fraction =
                std::min(point.frequencyFraction, throttle_floor);
            point.name += " (throttled)";
            point.frequencyFraction = fraction;
            const units::Watts nominal_tdp =
                degraded.operatingPoints.front().tdp;
            point.tdp = nominal_tdp.value() > 0.0
                            ? platform::dvfsScaledTdp(
                                  nominal_tdp, fraction,
                                  throttle_law.exponent,
                                  throttle_law.leakageFraction)
                            : units::Watts(0.0);
        } else if (op_lost) {
            // The selected point is unavailable; fall back to the
            // fastest point slower than it, aborting when the
            // selected point was already the slowest.
            const double lost_fraction =
                degraded.operatingPoints[op_index]
                    .frequencyFraction;
            bool found = false;
            double best = 0.0;
            for (std::size_t i = 0;
                 i < degraded.operatingPoints.size(); ++i) {
                const double fraction =
                    degraded.operatingPoints[i].frequencyFraction;
                if (fraction < lost_fraction &&
                    (!found || fraction > best)) {
                    found = true;
                    best = fraction;
                    op_index = i;
                }
            }
            if (!found) {
                variant.aborts = true;
                _platformVariants.push_back(variant);
                continue;
            }
        }

        const platform::RooflinePlatform degraded_machine(
            std::move(degraded));
        const platform::AttainableBound bound =
            degraded_machine.attainable(_spec.profile, op_index);
        variant.computeRate =
            bound.attainable.value() / _spec.workPerFrameGop;
        variant.binding = bound.binding;
        _platformVariants.push_back(variant);

        if (!_spec.pipeline)
            continue;
        // Evaluate the pipeline's per-stage bounds on this degraded
        // machine. The un-faulted variant keeps measured-first
        // semantics (bit-identical to the pipeline-only path on the
        // measured platform); faulted variants drop rule 1 so a
        // throttled clock scales the measurements and a derated
        // ceiling can raise a stage's modeled floor above them.
        workload::StagePipelineEvaluator evaluator(
            *_spec.pipeline, degraded_machine);
        // Stage-scoped faults lower through the *stage's* profile —
        // the workload's view of the ceiling family degrades, never
        // the platform the other stages share. Effects compound in
        // fault order by transforming the already-overridden
        // profile, mirroring how latency inflations multiply.
        for (std::size_t bit = 0; bit < _platformFaults.size();
             ++bit) {
            if ((mask & (std::size_t{1} << bit)) == 0)
                continue;
            const FaultSpec &fault =
                _spec.faults[_platformFaults[bit]];
            if (!resolvesStage(fault.kind))
                continue;
            for (std::size_t s = 0; s < _stageCount; ++s) {
                if (_stageNames[s] != fault.stage)
                    continue;
                platform::WorkloadProfile profile =
                    evaluator.stageProfile(s);
                if (fault.kind == FaultKind::StageCeilingDerate) {
                    profile.targetDerate[static_cast<unsigned>(
                        fault.targetClass)] *= fault.derate;
                } else {
                    profile.trafficFraction[fault.ceilingIndex] *=
                        fault.trafficFactor;
                }
                evaluator.overrideStageProfile(s, profile);
            }
        }
        // A derate-0 fault that strips a stage's *only* admitted
        // roof leaves it with 0 GOPS attainable — the stage cannot
        // execute at all, so the mission aborts for this fault
        // combination (the stage-eval spine would otherwise reject
        // the infinite latency). SLAM-style stages with a fallback
        // roof never hit this: their derated class just loses ties.
        bool stage_removed = false;
        for (std::size_t s = 0; s < _stageCount && !stage_removed;
             ++s) {
            if (!evaluator.stageAnnotated(s))
                continue;
            stage_removed =
                degraded_machine
                    .attainable(evaluator.stageProfile(s), op_index)
                    .attainable.value() <= 0.0;
        }
        if (stage_removed) {
            _platformVariants.back().aborts = true;
            continue;
        }
        workload::StageEvalOptions eval_options;
        eval_options.opIndex = op_index;
        eval_options.measuredFirst = mask == 0;
        const workload::PipelineBound stage_bound =
            evaluator.evaluate(eval_options);
        for (std::size_t s = 0; s < _stageCount; ++s) {
            const workload::StageBound &stage =
                stage_bound.stages[s];
            _stageBase[mask * _stageCount + s] =
                stage.latencySeconds;
            if (stage.binding.attributed) {
                _stageKind[mask * _stageCount + s] =
                    stage.binding.kind == platform::CeilingKind::Compute
                        ? StageKind::Compute
                        : StageKind::Memory;
            }
        }
    }
}

void
FaultCampaign::precomputePipelineVariants()
{
    // With R replicas racing on the same frame, takeover absorbs up
    // to R-1 stage failures; one more leaves no healthy replica.
    const int failure_budget =
        pipeline::replicaCount(_spec.redundancy) - 1;

    const std::size_t masks = std::size_t{1}
                              << _pipelineFaults.size();
    _pipelineAborts.assign(masks, false);
    _stageInflation.assign(masks * _stageCount, 1.0);
    for (std::size_t mask = 0; mask < masks; ++mask) {
        int failures = 0;
        double *inflation = &_stageInflation[mask * _stageCount];
        for (std::size_t bit = 0; bit < _pipelineFaults.size();
             ++bit) {
            if ((mask & (std::size_t{1} << bit)) == 0)
                continue;
            const FaultSpec &fault =
                _spec.faults[_pipelineFaults[bit]];
            if (fault.kind == FaultKind::StageFailure) {
                ++failures;
                continue;
            }
            // Inflations compound: two active inflations of one
            // stage multiply.
            for (std::size_t s = 0; s < _stageCount; ++s) {
                if (_stageNames[s] == fault.stage)
                    inflation[s] *= fault.latencyFactor;
            }
        }
        _pipelineAborts[mask] = failures > failure_budget;
    }
}

core::F1Analysis
FaultCampaign::baseline() const
{
    // Mask 0 never aborts: no fault is active.
    return outcome(0, pipeline::ModularRedundancy(_spec.redundancy))
        .analysis;
}

FaultCampaign::Outcome
FaultCampaign::outcome(std::uint64_t mask,
                       const pipeline::ModularRedundancy &redundancy) const
{
    // Split the joint mask into the per-layer table indices and fold
    // the active sensor derates in fault order.
    const auto layer_mask = [mask](const std::vector<std::size_t> &faults) {
        std::size_t out = 0;
        for (std::size_t bit = 0; bit < faults.size(); ++bit)
            out |= static_cast<std::size_t>((mask >> faults[bit]) & 1u)
                   << bit;
        return out;
    };
    const std::size_t platform_mask = layer_mask(_platformFaults);
    const std::size_t pipeline_mask = layer_mask(_pipelineFaults);
    double sensor_fraction = 1.0;
    for (const std::size_t j : _sensorFaults) {
        if ((mask >> j) & 1u)
            sensor_fraction *= 1.0 - _spec.faults[j].sensorDerate;
    }

    core::F1Inputs inputs = _spec.nominal;
    bool abort = sensor_fraction <= 0.0;
    platform::CeilingRef binding{};
    if (_spec.platform) {
        const PlatformVariant &variant =
            _platformVariants[platform_mask];
        abort = abort || variant.aborts;
        inputs.computeRate = units::Hertz(variant.computeRate);
        binding = variant.binding;
    }
    if (_spec.pipeline) {
        abort = abort || _pipelineAborts[pipeline_mask];
        if (!abort) {
            // The stage latencies of the platform variant, inflated
            // by the active stage faults.
            const double *base =
                &_stageBase[platform_mask * _stageCount];
            const double *inflation =
                &_stageInflation[pipeline_mask * _stageCount];
            double total = 0.0;
            for (std::size_t s = 0; s < _stageCount; ++s)
                total += base[s] * inflation[s];
            const double pipeline_rate =
                redundancy
                    .effectiveThroughput(units::Hertz(1.0 / total))
                    .value();
            if (!_spec.platform ||
                pipeline_rate < inputs.computeRate.value()) {
                inputs.computeRate = units::Hertz(pipeline_rate);
                binding = {};
            }
        }
    }

    Outcome out;
    out.platformMask = platform_mask;
    if (abort) {
        out.aborts = true;
        return out;
    }
    inputs.sensorRate =
        units::Hertz(inputs.sensorRate.value() * sensor_fraction);
    inputs.computeBinding = binding;
    core::F1Model::analyzeInto(inputs, out.analysis);
    return out;
}

/** Integer tallies of a set of samples plus their surviving v_safe
 * values as (value, multiplicity) pairs. */
struct FaultCampaign::Tally
{
    std::uint64_t aborts = 0;
    std::vector<std::uint64_t> activations; ///< Per fault.
    std::vector<std::uint64_t> ceilings;    ///< Per flat slot.
    std::vector<std::uint64_t> stages;      ///< [stage * 3 + kind].
    std::vector<std::pair<double, std::uint64_t>> survivors;

    /** Fold `other` in after this one (survivors keep its order). */
    void merge(const Tally &other)
    {
        aborts += other.aborts;
        for (std::size_t j = 0; j < activations.size(); ++j)
            activations[j] += other.activations[j];
        for (std::size_t k = 0; k < ceilings.size(); ++k)
            ceilings[k] += other.ceilings[k];
        for (std::size_t k = 0; k < stages.size(); ++k)
            stages[k] += other.stages[k];
        survivors.insert(survivors.end(), other.survivors.begin(),
                         other.survivors.end());
    }
};

FaultCampaign::Tally
FaultCampaign::emptyTally() const
{
    Tally tally;
    tally.activations.assign(_spec.faults.size(), 0);
    if (_spec.platform) {
        tally.ceilings.assign(
            _spec.platform->computeCeilings().size() +
                _spec.platform->memoryCeilings().size(),
            0);
        if (_spec.pipeline)
            tally.stages.assign(_stageCount * 3, 0);
    }
    return tally;
}

void
FaultCampaign::add(Tally &tally, std::uint64_t mask,
                   const Outcome &outcome, std::uint64_t n) const
{
    for (std::size_t j = 0; j < _spec.faults.size(); ++j) {
        if ((mask >> j) & 1u)
            tally.activations[j] += n;
    }
    if (outcome.aborts) {
        tally.aborts += n;
        return;
    }
    tally.survivors.emplace_back(outcome.analysis.safeVelocity.value(),
                                 n);
    // Attributed only through a platform variant.
    const platform::CeilingRef &binding =
        outcome.analysis.computeBinding;
    if (binding.attributed) {
        tally.ceilings[binding.kind == platform::CeilingKind::Compute
                           ? binding.index
                           : _spec.platform->computeCeilings().size() +
                                 binding.index] += n;
    }
    if (tally.stages.empty())
        return;
    const StageKind *kinds =
        &_stageKind[outcome.platformMask * _stageCount];
    for (std::size_t s = 0; s < _stageCount; ++s)
        tally.stages[s * 3 + static_cast<std::size_t>(kinds[s])] += n;
}

CampaignResult
FaultCampaign::summarize(Tally tally, std::size_t count) const
{
    CampaignResult result;
    result.samples = count;
    const double samples = static_cast<double>(count);
    result.abortProbability =
        static_cast<double>(tally.aborts) / samples;
    for (const std::uint64_t hits : tally.activations)
        result.faultActivationRate.push_back(
            static_cast<double>(hits) / samples);

    const std::uint64_t survivors = count - tally.aborts;
    const double denom =
        survivors > 0 ? static_cast<double>(survivors) : 1.0;
    if (_spec.platform) {
        const std::size_t compute_ceilings =
            _spec.platform->computeCeilings().size();
        for (std::size_t k = 0; k < tally.ceilings.size(); ++k) {
            const double prob =
                survivors > 0
                    ? static_cast<double>(tally.ceilings[k]) / denom
                    : 0.0;
            (k < compute_ceilings ? result.probComputeCeilingBinds
                                  : result.probMemoryCeilingBinds)
                .push_back(prob);
        }
    }
    result.stageBindings.resize(tally.stages.size() / 3);
    for (std::size_t s = 0; s < result.stageBindings.size(); ++s) {
        StageBindingStats &stats = result.stageBindings[s];
        stats.stage = _stageNames[s];
        stats.probComputeBound =
            static_cast<double>(tally.stages[s * 3 + 0]) / denom;
        stats.probMemoryBound =
            static_cast<double>(tally.stages[s * 3 + 1]) / denom;
        stats.probMeasured =
            static_cast<double>(tally.stages[s * 3 + 2]) / denom;
    }

    if (survivors > 0) {
        result.safeVelocity =
            sim::Distribution::fromCounts(std::move(tally.survivors));
    }
    return result;
}

std::vector<double>
FaultCampaign::thresholds(double probability_scale) const
{
    std::vector<double> out;
    for (const FaultSpec &fault : _spec.faults)
        out.push_back(
            std::min(1.0, fault.probability * probability_scale));
    return out;
}

std::vector<std::uint64_t>
FaultCampaign::sampleOutcomes(const std::vector<double> &thresholds,
                              std::size_t levels, std::size_t count,
                              std::uint64_t seed,
                              const exec::ParallelOptions &parallel) const
{
    const std::size_t fault_count = _spec.faults.size();
    const SignaturePass pass(thresholds, fault_count, levels);
    const std::size_t cells = pass.signatures();

    // Per-slot histograms: integers, so summing the slots after the
    // loop is exact and independent of the thread count. Regions are
    // padded by a cache line so concurrently written counters and
    // draws never share one.
    const std::size_t slots = exec::maxSlots(parallel);
    constexpr std::size_t pad = 64 / sizeof(double);
    const std::size_t count_stride = cells + pad;
    const std::size_t draw_stride = drawSamples * fault_count + pad;
    std::vector<std::uint64_t> counts(slots * count_stride, 0);
    std::vector<double> draws(slots * draw_stride);

    sim::forEachBlock(
        count, seed, parallel,
        [&](std::size_t slot, Rng &rng, std::size_t lo,
            std::size_t hi) {
            pass.count(rng, hi - lo, draws.data() + slot * draw_stride,
                       counts.data() + slot * count_stride);
        });

    for (std::size_t slot = 1; slot < slots; ++slot)
        for (std::size_t c = 0; c < cells; ++c)
            counts[c] += counts[slot * count_stride + c];
    return pass.masks(counts.data());
}

CampaignResult
FaultCampaign::fromHistogram(const std::uint64_t *counts,
                             const std::vector<double> &threshold,
                             std::size_t count, std::uint64_t seed,
                             const exec::ParallelOptions &parallel) const
{
    const pipeline::ModularRedundancy redundancy(_spec.redundancy);
    Tally tally = emptyTally();
    const std::size_t masks = std::size_t{1} << _spec.faults.size();
    try {
        for (std::size_t mask = 0; mask < masks; ++mask) {
            if (counts[mask] != 0)
                add(tally, mask, outcome(mask, redundancy),
                    counts[mask]);
        }
    } catch (const ModelError &) {
        // An occupied outcome failed F1 validation: rerun the scalar
        // loop so the error thrown is its first one, byte for byte.
        return reference(threshold, count, seed, parallel);
    }
    return summarize(std::move(tally), count);
}

CampaignResult
FaultCampaign::reference(const std::vector<double> &threshold,
                         std::size_t count, std::uint64_t seed,
                         const exec::ParallelOptions &parallel) const
{
    const pipeline::ModularRedundancy redundancy(_spec.redundancy);
    // Per-slot tallies: summarize() reads survivors through
    // Distribution::fromCounts, which depends only on the multiset,
    // so the slots merge in any order.
    std::vector<Tally> slot_tallies(exec::maxSlots(parallel),
                                    emptyTally());
    sim::forEachBlock(
        count, seed, parallel,
        [&](std::size_t slot, Rng &rng, std::size_t lo,
            std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                // Exactly one draw per fault, active or not, so the
                // stream a later fault sees never depends on an
                // earlier activation (or on probabilityScale turning
                // one off).
                std::uint64_t mask = 0;
                for (std::size_t j = 0; j < threshold.size(); ++j) {
                    if (rng.uniform() < threshold[j])
                        mask |= std::uint64_t{1} << j;
                }
                add(slot_tallies[slot], mask,
                    outcome(mask, redundancy), 1);
            }
        });

    Tally total = emptyTally();
    for (const Tally &tally : slot_tallies)
        total.merge(tally);
    return summarize(std::move(total), count);
}

CampaignResult
FaultCampaign::run(std::size_t count, std::uint64_t seed,
                   const exec::ParallelOptions &parallel) const
{
    if (count < 10)
        throw ModelError("fault campaign needs >= 10 samples");
    const std::vector<double> threshold =
        thresholds(_spec.probabilityScale);
    const std::vector<std::uint64_t> counts =
        sampleOutcomes(threshold, 1, count, seed, parallel);
    return fromHistogram(counts.data(), threshold, count, seed,
                         parallel);
}

CampaignResult
FaultCampaign::runReference(
    std::size_t count, std::uint64_t seed,
    const exec::ParallelOptions &parallel) const
{
    if (count < 10)
        throw ModelError("fault campaign needs >= 10 samples");
    return reference(thresholds(_spec.probabilityScale), count, seed,
                     parallel);
}

std::vector<DegradationPoint>
FaultCampaign::degradationCurve(
    std::size_t levels, std::size_t samples_per_level,
    std::uint64_t seed, const exec::ParallelOptions &parallel) const
{
    if (levels < 2)
        throw ModelError("degradation curve needs >= 2 levels");
    if (levels > maxCurveLevels) {
        throw ModelError("degradation curve allows at most " +
                         std::to_string(maxCurveLevels) +
                         " levels, got " + std::to_string(levels));
    }
    if (samples_per_level < 10)
        throw ModelError("fault campaign needs >= 10 samples");

    // The same seed at every level, and one draw per fault whether
    // or not it fires, so every level sees the same uniforms and
    // severity is the only mover: one pass counts each sample's
    // signature once for all its levels. A pass takes the most
    // levels whose (levels + 1)^faults signatures fit in
    // 2^maxFaults counters per slot: 39 at 3 faults, 1 at 16.
    const std::size_t fault_count = _spec.faults.size();
    const std::size_t masks = std::size_t{1} << fault_count;
    std::size_t group = 1;
    while (group < levels &&
           cappedPower(group + 2, fault_count) <= maxSignatures)
        ++group;

    const auto scale_at = [&](std::size_t level) {
        return static_cast<double>(level) /
               static_cast<double>(levels - 1);
    };
    std::vector<DegradationPoint> curve;
    curve.reserve(levels);
    for (std::size_t first = 0; first < levels; first += group) {
        const std::size_t last = std::min(levels, first + group);
        std::vector<std::vector<double>> level_thresholds;
        std::vector<double> flat;
        for (std::size_t level = first; level < last; ++level) {
            level_thresholds.push_back(
                thresholds(_spec.probabilityScale * scale_at(level)));
            flat.insert(flat.end(), level_thresholds.back().begin(),
                        level_thresholds.back().end());
        }
        const std::vector<std::uint64_t> counts = sampleOutcomes(
            flat, last - first, samples_per_level, seed, parallel);
        for (std::size_t level = first; level < last; ++level) {
            const std::size_t row = level - first;
            curve.push_back(
                {scale_at(level),
                 fromHistogram(counts.data() + row * masks,
                               level_thresholds[row],
                               samples_per_level, seed, parallel)});
        }
    }
    return curve;
}

} // namespace uavf1::fault
