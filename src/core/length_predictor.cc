#include "core/length_predictor.hh"

#include <algorithm>

#include "base/logging.hh"

namespace lightllm {
namespace core {

LengthPredictor::LengthPredictor(std::size_t window_size,
                                 TokenCount seed_len)
    : capacity_(window_size), seedLen_(seed_len),
      seeds_(seed_len > 0 ? std::min(kColdStartSeedCount, window_size)
                          : 0),
      distribution_(std::vector<TokenCount>(seeds_, seed_len))
{
    LIGHTLLM_ASSERT(window_size > 0, "window size must be positive");
    LIGHTLLM_ASSERT(seed_len >= 0, "negative seed length");
    ring_.reserve(capacity_);
}

void
LengthPredictor::observe(TokenCount output_len)
{
    LIGHTLLM_ASSERT(output_len >= 0, "negative output length");
    lastPush_ = LastPush{++version_, output_len, 0, false};
    if (seeds_ > 0) {
        --seeds_;
        lastPush_.removed = seedLen_;
        lastPush_.hasRemoved = true;
    } else if (ring_.size() == capacity_) {
        lastPush_.removed = ring_[head_];
        lastPush_.hasRemoved = true;
    }
    if (ring_.size() < capacity_) {
        ring_.push_back(output_len);
    } else {
        ring_[head_] = output_len;
        head_ = (head_ + 1) % capacity_;
    }
    if (lastPush_.hasRemoved)
        distribution_.eraseValue(lastPush_.removed);
    distribution_.insertValue(output_len);
}

TokenCount
LengthPredictor::expectedOutput(TokenCount generated_len,
                                TokenCount max_new_tokens) const
{
    if (distribution_.empty())
        return max_new_tokens;
    return std::min(distribution_.tailMean(generated_len, max_new_tokens),
                    max_new_tokens);
}

TokenCount
LengthPredictor::predictFootprint(TokenCount input_len,
                                  TokenCount max_new_tokens) const
{
    return input_len + expectedOutput(0, max_new_tokens);
}

} // namespace core
} // namespace lightllm
