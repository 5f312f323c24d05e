#include "workload/rate_schedule.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "base/str_util.hh"

namespace lightllm {
namespace workload {

RateSchedule::RateSchedule(std::vector<RateSegment> segments)
    : segments_(std::move(segments))
{
    LIGHTLLM_ASSERT(!segments_.empty(),
                    "rate schedule needs at least one segment");
    double peak = 0.0;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        const RateSegment &segment = segments_[i];
        LIGHTLLM_ASSERT(segment.ratePerSecond >= 0.0,
                        "negative arrival rate in segment ", i);
        LIGHTLLM_ASSERT(segment.durationSeconds > 0.0 ||
                            i + 1 == segments_.size(),
                        "only the last segment may be open-ended");
        peak = std::max(peak, segment.ratePerSecond);
    }
    LIGHTLLM_ASSERT(peak > 0.0,
                    "rate schedule never has a positive rate");
    // The schedule must be able to place every arrival of a finite
    // dataset: an open-ended zero-rate tail would stall forever.
    LIGHTLLM_ASSERT(segments_.back().durationSeconds > 0.0
                        ? true
                        : segments_.back().ratePerSecond > 0.0,
                    "open-ended tail segment needs a positive rate");
}

RateSchedule
RateSchedule::constant(double rate)
{
    return RateSchedule({RateSegment{rate, 0.0}});
}

RateSchedule
RateSchedule::steps(std::vector<RateSegment> segments)
{
    LIGHTLLM_ASSERT(segments.empty() ||
                        segments.back().ratePerSecond > 0.0,
                    "the final steps rate must be positive (it "
                    "becomes the open-ended tail)");
    if (!segments.empty() &&
        segments.back().durationSeconds > 0.0) {
        // Implicit open-ended tail at the final rate so a finite
        // dataset always drains.
        segments.push_back(
            RateSegment{segments.back().ratePerSecond, 0.0});
    }
    return RateSchedule(std::move(segments));
}

RateSchedule
RateSchedule::spike(double base, double peak, double at,
                    double duration)
{
    LIGHTLLM_ASSERT(at >= 0.0, "spike start must be non-negative");
    LIGHTLLM_ASSERT(duration > 0.0, "spike needs a duration");
    std::vector<RateSegment> segments;
    if (at > 0.0)
        segments.push_back(RateSegment{base, at});
    segments.push_back(RateSegment{peak, duration});
    segments.push_back(RateSegment{base, 0.0});
    return RateSchedule(std::move(segments));
}

RateSchedule
RateSchedule::diurnal(double base, double amplitude,
                      double period_seconds,
                      std::size_t steps_per_period,
                      std::size_t cycles)
{
    LIGHTLLM_ASSERT(period_seconds > 0.0, "period must be positive");
    LIGHTLLM_ASSERT(steps_per_period >= 2,
                    "need at least two steps per period");
    LIGHTLLM_ASSERT(cycles >= 1, "need at least one cycle");
    const double step = period_seconds /
        static_cast<double>(steps_per_period);
    std::vector<RateSegment> segments;
    segments.reserve(steps_per_period * cycles + 1);
    for (std::size_t c = 0; c < cycles; ++c) {
        for (std::size_t s = 0; s < steps_per_period; ++s) {
            // Sample at the step midpoint.
            const double t = (static_cast<double>(s) + 0.5) * step;
            const double rate = base +
                amplitude * std::sin(2.0 * M_PI * t /
                                     period_seconds);
            segments.push_back(
                RateSegment{std::max(rate, 0.0), step});
        }
    }
    segments.push_back(RateSegment{base, 0.0});
    return RateSchedule(std::move(segments));
}

std::string
RateSchedule::describe() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        if (i > 0)
            oss << ",";
        oss << formatDouble(segments_[i].ratePerSecond, 2) << "/s";
        if (segments_[i].durationSeconds > 0.0) {
            oss << "x"
                << formatDouble(segments_[i].durationSeconds, 0)
                << "s";
        }
    }
    return oss.str();
}

namespace {

bool
parseNonNegative(const std::string &text, double &out)
{
    try {
        std::size_t used = 0;
        out = std::stod(text, &used);
        return used == text.size() && out >= 0.0;
    } catch (const std::exception &) {
        return false;
    }
}

std::vector<std::string>
splitFields(const std::string &body)
{
    std::vector<std::string> fields;
    for (const std::string &field : splitString(body, ','))
        fields.push_back(std::string(trimString(field)));
    return fields;
}

} // namespace

bool
parseRateSchedule(const std::string &spec, RateSchedule &out,
                  std::string &error)
{
    const auto colon = spec.find(':');
    if (colon == std::string::npos) {
        error = "rate schedule needs a kind prefix "
                "(const: | steps: | spike: | diurnal:)";
        return false;
    }
    const std::string kind = spec.substr(0, colon);
    const std::string body = spec.substr(colon + 1);

    if (kind == "const") {
        double rate = 0.0;
        if (!parseNonNegative(body, rate) || rate <= 0.0) {
            error = "const schedule needs a positive rate, got '" +
                    body + "'";
            return false;
        }
        out = RateSchedule::constant(rate);
        return true;
    }

    if (kind == "steps") {
        std::vector<RateSegment> segments;
        const std::vector<std::string> fields = splitFields(body);
        for (std::size_t i = 0; i < fields.size(); ++i) {
            const std::string &field = fields[i];
            const auto x = field.find('x');
            RateSegment segment;
            if (x == std::string::npos) {
                // Bare rate: the open-ended tail (last field only).
                if (i + 1 != fields.size()) {
                    error = "only the last steps segment may omit "
                            "its duration: '" + field + "'";
                    return false;
                }
                if (!parseNonNegative(field,
                                      segment.ratePerSecond)) {
                    error = "bad steps rate: '" + field + "'";
                    return false;
                }
                segment.durationSeconds = 0.0;
            } else {
                if (!parseNonNegative(field.substr(0, x),
                                      segment.ratePerSecond) ||
                    !parseNonNegative(field.substr(x + 1),
                                      segment.durationSeconds) ||
                    segment.durationSeconds <= 0.0) {
                    error = "bad steps segment (want RATExSECONDS): "
                            "'" + field + "'";
                    return false;
                }
            }
            segments.push_back(segment);
        }
        if (segments.empty()) {
            error = "steps schedule needs at least one segment";
            return false;
        }
        // The final rate holds forever (explicitly open-ended, or
        // as the implicit tail a closed last segment gets): it must
        // be positive, or a finite dataset could never drain.
        if (segments.back().ratePerSecond <= 0.0) {
            error = "the final steps rate must be positive (it "
                    "holds forever so the dataset can drain)";
            return false;
        }
        out = RateSchedule::steps(std::move(segments));
        return true;
    }

    if (kind == "spike") {
        const std::vector<std::string> fields = splitFields(body);
        double base = 0.0, peak = 0.0, at = 0.0, duration = 0.0;
        if (fields.size() != 4 ||
            !parseNonNegative(fields[0], base) ||
            !parseNonNegative(fields[1], peak) ||
            !parseNonNegative(fields[2], at) ||
            !parseNonNegative(fields[3], duration) ||
            duration <= 0.0 || (base <= 0.0 && peak <= 0.0)) {
            error = "spike schedule wants BASE,PEAK,AT,DURATION "
                    "with a positive duration";
            return false;
        }
        if (base <= 0.0) {
            error = "spike base rate must be positive (the "
                    "open-ended tail resumes at it)";
            return false;
        }
        out = RateSchedule::spike(base, peak, at, duration);
        return true;
    }

    if (kind == "diurnal") {
        const std::vector<std::string> fields = splitFields(body);
        double base = 0.0, amplitude = 0.0, period = 0.0;
        double steps = 24.0, cycles = 1.0;
        if (fields.size() < 3 || fields.size() > 5 ||
            !parseNonNegative(fields[0], base) ||
            !parseNonNegative(fields[1], amplitude) ||
            !parseNonNegative(fields[2], period) || period <= 0.0 ||
            (fields.size() >= 4 &&
             (!parseNonNegative(fields[3], steps) || steps < 2.0)) ||
            (fields.size() == 5 &&
             (!parseNonNegative(fields[4], cycles) ||
              cycles < 1.0))) {
            error = "diurnal schedule wants "
                    "BASE,AMPLITUDE,PERIOD[,STEPS[,CYCLES]]";
            return false;
        }
        if (base <= 0.0) {
            error = "diurnal base rate must be positive";
            return false;
        }
        out = RateSchedule::diurnal(
            base, amplitude, period,
            static_cast<std::size_t>(steps),
            static_cast<std::size_t>(cycles));
        return true;
    }

    error = "unknown rate schedule kind: " + kind;
    return false;
}

} // namespace workload
} // namespace lightllm
