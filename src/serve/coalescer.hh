/**
 * @file
 * Deadline-aware coalescing policy for the serving dispatchers.
 *
 * PR 4's dispatcher merged greedily: whatever same-T requests were
 * already pending rode along, and the pass started immediately. That
 * leaves rounds underfilled under trickling arrivals. The policy here
 * replaces it: a request that carries a latency budget (deadline) may
 * be HELD — the dispatcher waits for more same-T arrivals to fill the
 * round — for as long as the budget minus the expected pass time
 * allows, and never longer. A request with no budget grants no hold
 * (the old greedy behavior, bit for bit).
 *
 * Everything is a pure function of explicitly passed times, so tests
 * pin the never-past-the-budget contract with an injected clock; the
 * live dispatchers (serve::InferenceSession's worker and each
 * serve::Server shard) feed in steady_clock readings.
 */

#ifndef VIBNN_SERVE_COALESCER_HH
#define VIBNN_SERVE_COALESCER_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace vibnn::serve
{

/**
 * Upper bound on any deadline budget, in microseconds (10 minutes).
 * A deadline licenses the dispatcher to HOLD work, so an unbounded
 * caller-supplied value would let one request park a shard's
 * dispatcher for an arbitrary time (starving every different-T
 * request) — and values near INT64_MAX overflow the duration math
 * inside condition_variable::wait_for. Enforced at every admission
 * edge through requestRuleViolation below (wire decode, server
 * admission, InferenceSession::checkRequest), plus the session Builder
 * and the VIBNN_SERVE_DEADLINE_US env front door.
 */
constexpr std::int64_t kMaxDeadlineMicros = 600'000'000;

/** Upper bound on any ensemble size (session or per-request) — T
 *  drives count x T x outputDim allocations, so an absurd value must
 *  fail with a message, not a bad_alloc. */
constexpr int kMaxEnsembleSize = 65536;

/**
 * The program-independent request rules, written once for every
 * admission edge: at least one image, mcSamples in
 * [0, kMaxEnsembleSize] (0 = the session's T), deadlineMicros in
 * [0, kMaxDeadlineMicros]. Returns the first violation, empty when all
 * hold. InferenceSession::checkRequest adds the program-dependent rules
 * on top; the wire decoder applies these before trusting a frame.
 */
std::string requestRuleViolation(std::size_t count,
                                 std::int64_t mc_samples,
                                 std::int64_t deadline_micros);

/**
 * EWMA of recent engine pass durations — the coalescer's expectation
 * of what executing the batch will cost, reserved out of every
 * member's remaining budget so holding cannot push completion past a
 * deadline (to the extent the estimate is honest; the hold itself is
 * hard-bounded by the budget regardless).
 *
 * Not thread-safe; callers serialize access (the session guards it
 * with its estimator lock, a server shard owns one per worker).
 */
class PassTimeEstimator
{
  public:
    /** @param alpha EWMA weight of the newest observation. */
    explicit PassTimeEstimator(double alpha = 0.25) : alpha_(alpha) {}

    /** Record a completed pass's duration. */
    void
    observe(double micros)
    {
        if (micros < 0.0)
            return;
        value_ = seeded_ ? alpha_ * micros + (1.0 - alpha_) * value_
                         : micros;
        seeded_ = true;
    }

    /** Current estimate in microseconds (0 until the first pass — a
     *  cold dispatcher reserves nothing and may overshoot a deadline
     *  once; the hold bound itself still holds). */
    double estimateMicros() const { return seeded_ ? value_ : 0.0; }

  private:
    double alpha_;
    double value_ = 0.0;
    bool seeded_ = false;
};

/**
 * How much longer one request may be held, in microseconds.
 *
 * @param deadline_micros The request's total latency budget from
 *        enqueue; <= 0 means no budget — no hold allowance.
 * @param waited_micros Time already spent queued (now - enqueue).
 * @param estimated_pass_micros Expected cost of the pass that will
 *        serve the request (reserved out of the budget).
 * @return Remaining hold allowance; <= 0 means execute now. The
 *         invariant tests pin: waited + allowance + estimate never
 *         exceeds the budget, so the coalescer cannot hold a request
 *         past the point where on-time completion is still expected.
 */
std::int64_t holdAllowanceMicros(std::int64_t deadline_micros,
                                 std::int64_t waited_micros,
                                 std::int64_t estimated_pass_micros);

/**
 * The hold allowance of a whole candidate batch: the minimum of the
 * members' individual allowances — the tightest budget rules, so no
 * member is ever held past its own. A batch in which no member
 * carries a budget has no allowance (greedy execute, the pre-deadline
 * dispatcher behavior).
 *
 * @param deadlines_micros Per-member budgets (<= 0 = none).
 * @param waited_micros Per-member queued time so far.
 * @param count Members.
 * @param estimated_pass_micros Expected pass cost.
 */
std::int64_t batchHoldAllowanceMicros(
    const std::int64_t *deadlines_micros,
    const std::int64_t *waited_micros, std::size_t count,
    std::int64_t estimated_pass_micros);

} // namespace vibnn::serve

#endif // VIBNN_SERVE_COALESCER_HH
