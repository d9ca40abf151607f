#include "serve/coalescer.hh"

#include <algorithm>

namespace vibnn::serve
{

std::string
requestRuleViolation(std::size_t count, std::int64_t mc_samples,
                     std::int64_t deadline_micros)
{
    if (count == 0)
        return "request holds no images";
    if (mc_samples < 0 || mc_samples > kMaxEnsembleSize)
        return "request mcSamples must be in [0, " +
            std::to_string(kMaxEnsembleSize) + "], got " +
            std::to_string(mc_samples);
    if (deadline_micros < 0 || deadline_micros > kMaxDeadlineMicros)
        // An unbounded budget is an unbounded dispatcher-hold license
        // (and overflows wait_for's duration math).
        return "request deadlineMicros must be in [0, " +
            std::to_string(kMaxDeadlineMicros) + "], got " +
            std::to_string(deadline_micros);
    return {};
}

std::int64_t
holdAllowanceMicros(std::int64_t deadline_micros,
                    std::int64_t waited_micros,
                    std::int64_t estimated_pass_micros)
{
    if (deadline_micros <= 0)
        return 0; // no budget, no license to hold
    const std::int64_t waited = std::max<std::int64_t>(waited_micros, 0);
    const std::int64_t reserve =
        std::max<std::int64_t>(estimated_pass_micros, 0);
    // Budget minus what is already spent minus the expected pass cost;
    // saturates at 0 so an overdue request executes immediately rather
    // than producing a negative wait.
    if (deadline_micros <= waited)
        return 0;
    const std::int64_t remaining = deadline_micros - waited;
    if (remaining <= reserve)
        return 0;
    return remaining - reserve;
}

std::int64_t
batchHoldAllowanceMicros(const std::int64_t *deadlines_micros,
                         const std::int64_t *waited_micros,
                         std::size_t count,
                         std::int64_t estimated_pass_micros)
{
    if (count == 0)
        return 0;
    // The tightest member rules. A member with no budget contributes
    // zero — it was promised greedy dispatch, so the batch may not be
    // held on a neighbour's license.
    std::int64_t allowance = holdAllowanceMicros(
        deadlines_micros[0], waited_micros[0], estimated_pass_micros);
    for (std::size_t i = 1; i < count && allowance > 0; ++i) {
        allowance = std::min(
            allowance,
            holdAllowanceMicros(deadlines_micros[i], waited_micros[i],
                                estimated_pass_micros));
    }
    return allowance;
}

} // namespace vibnn::serve
