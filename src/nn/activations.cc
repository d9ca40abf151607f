#include "nn/activations.hh"

#include <algorithm>
#include <cmath>

namespace vibnn::nn
{

void
reluForward(float *values, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        values[i] = std::max(0.0f, values[i]);
}

void
reluBackward(const float *pre_activation, const float *dy, float *dx,
             std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        dx[i] = pre_activation[i] > 0.0f ? dy[i] : 0.0f;
}

void
softmax(float *values, std::size_t count)
{
    if (count == 0)
        return;
    float peak = values[0];
    for (std::size_t i = 1; i < count; ++i)
        peak = std::max(peak, values[i]);
    float total = 0.0f;
    for (std::size_t i = 0; i < count; ++i) {
        values[i] = std::exp(values[i] - peak);
        total += values[i];
    }
    const float inv = 1.0f / total;
    for (std::size_t i = 0; i < count; ++i)
        values[i] *= inv;
}

float
softplus(float x)
{
    if (x > 20.0f)
        return x;
    if (x < -20.0f)
        return std::exp(x);
    return std::log1p(std::exp(x));
}

float
logistic(float x)
{
    if (x >= 0.0f) {
        const float z = std::exp(-x);
        return 1.0f / (1.0f + z);
    }
    const float z = std::exp(x);
    return z / (1.0f + z);
}

void
softplusAndLogistic(float x, float &s, float &lg)
{
    if (x < 0.0f) {
        // The x < 0 branches of softplus and logistic, one exp shared.
        const float z = std::exp(x);
        s = x < -20.0f ? z : std::log1p(z);
        lg = z / (1.0f + z);
        return;
    }
    s = softplus(x);
    lg = logistic(x);
}

} // namespace vibnn::nn
