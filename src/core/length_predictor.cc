#include "core/length_predictor.hh"

#include <algorithm>

namespace lightllm {
namespace core {

LengthPredictor::LengthPredictor(std::size_t window_size)
    : window_(window_size)
{
}

void
LengthPredictor::seed(TokenCount value, std::size_t count)
{
    window_.seed(value, count);
    distributionValid_ = false;
}

void
LengthPredictor::observe(TokenCount output_len)
{
    const HistoryWindow::PushDelta delta = window_.push(output_len);
    lastPush_ = LastPush{window_.version(), output_len, delta.removed,
                         delta.hasRemoved};
    if (distributionValid_) {
        if (delta.hasRemoved)
            distribution_.eraseValue(delta.removed);
        distribution_.insertValue(output_len);
    }
}

void
LengthPredictor::rebuildDistribution()
{
    distribution_ = LengthDistribution(window_.snapshot());
    distributionValid_ = true;
}

TokenCount
LengthPredictor::expectedOutput(TokenCount generated_len,
                                TokenCount max_new_tokens)
{
    const LengthDistribution &dist = distribution();
    if (dist.empty())
        return max_new_tokens;
    return std::min(dist.tailMean(generated_len, max_new_tokens),
                    max_new_tokens);
}

TokenCount
LengthPredictor::predictFootprint(TokenCount input_len,
                                  TokenCount max_new_tokens)
{
    return input_len + expectedOutput(0, max_new_tokens);
}

} // namespace core
} // namespace lightllm
