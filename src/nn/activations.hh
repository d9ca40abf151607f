/**
 * @file
 * Activation functions. The accelerator implements ReLU (Section 5.1);
 * softmax exists for the software classification head.
 */

#ifndef VIBNN_NN_ACTIVATIONS_HH
#define VIBNN_NN_ACTIVATIONS_HH

#include <cstddef>
#include <vector>

namespace vibnn::nn
{

/** In-place ReLU. */
void reluForward(float *values, std::size_t count);

/** ReLU backward: dx = dy where pre-activation > 0, else 0. */
void reluBackward(const float *pre_activation, const float *dy, float *dx,
                  std::size_t count);

/** Numerically stable in-place softmax. */
void softmax(float *values, std::size_t count);

/** softplus(x) = ln(1 + exp(x)), stable for large |x|. */
float softplus(float x);

/** d softplus / dx = logistic(x). */
float logistic(float x);

/**
 * s = softplus(x) and lg = logistic(x), bit-identical to the two calls
 * above. For x < 0 both take exp(x), so this shares that one exp; the
 * variational layers' rho sits there (sigma = softplus(rho) is small).
 */
void softplusAndLogistic(float x, float &s, float &lg);

} // namespace vibnn::nn

#endif // VIBNN_NN_ACTIVATIONS_HH
