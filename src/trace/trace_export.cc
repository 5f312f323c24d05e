/**
 * @file
 * Export of recorded rings as Chrome trace-event JSON (Perfetto's
 * legacy JSON importer) and a per-request CSV timeline.
 *
 * Ring wraparound means a ring may start mid-span: an End whose
 * Begin was overwritten is skipped, and spans still open when the
 * ring ends (requests in flight when the run stopped) are closed at
 * the last observed tick — so the emitted JSON always has matched
 * B/E pairs (pinned by test_trace). A Begin never finds its track's
 * span open: a request's spans on one engine are sequential, and a
 * ring drops its oldest events first, so the End before a surviving
 * Begin survived too.
 */

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "base/logging.hh"
#include "trace/trace_recorder.hh"

namespace lightllm {
namespace trace {
namespace {

void
appendEscaped(std::string &out, const std::string &text)
{
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out.push_back(c);
        }
    }
}

/** Streams one JSON event object per line into `os`. */
class EventWriter
{
  public:
    explicit EventWriter(std::ostream &os) : os_(os) {}

    void metadata(std::int32_t pid, std::int64_t tid,
                  const char *what, const std::string &value)
    {
        line_.clear();
        line_ += first_ ? "{\"ph\":\"M\",\"pid\":"
                        : ",\n{\"ph\":\"M\",\"pid\":";
        first_ = false;
        line_ += std::to_string(pid);
        line_ += ",\"tid\":";
        line_ += std::to_string(tid);
        line_ += ",\"name\":\"";
        line_ += what;
        line_ += "\",\"args\":{\"name\":\"";
        appendEscaped(line_, value);
        line_ += "\"}}";
        os_ << line_;
    }

    void event(char ph, std::int32_t pid, std::int64_t tid,
               Tick ts, TraceName name, const TraceEvent *args)
    {
        line_.clear();
        line_ += first_ ? "{\"ph\":\"" : ",\n{\"ph\":\"";
        first_ = false;
        line_.push_back(ph);
        line_ += "\",\"pid\":";
        line_ += std::to_string(pid);
        line_ += ",\"tid\":";
        line_ += std::to_string(tid);
        line_ += ",\"ts\":";
        line_ += std::to_string(ts);
        line_ += ",\"name\":\"";
        line_ += traceName(name);
        line_ += '"';
        if (ph == 'i')
            line_ += ",\"s\":\"t\"";
        if (args != nullptr) {
            line_ += ",\"args\":{";
            const std::int64_t values[3] = {args->arg0, args->arg1,
                                            args->arg2};
            bool any = false;
            for (int slot = 0; slot < 3; ++slot) {
                const char *key = traceArgKey(name, slot);
                if (key == nullptr)
                    continue;
                if (any)
                    line_ += ',';
                any = true;
                line_ += '"';
                line_ += key;
                line_ += "\":";
                line_ += std::to_string(values[slot]);
            }
            line_ += '}';
        }
        line_ += '}';
        os_ << line_;
    }

  private:
    std::ostream &os_;
    std::string line_;
    bool first_ = true;
};

std::int64_t
eventTid(const TraceEvent &event)
{
    // tid 0 is the engine's own track; requests each get their own
    // (request ids are non-negative, so id + 1 never collides).
    return event.id == kInvalidRequestId ? 0 : event.id + 1;
}

} // namespace

void
TraceRecorder::writeChromeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    EventWriter writer(os);

    for (const auto &engine : engines_) {
        writer.metadata(engine.pid(), 0, "process_name",
                        engine.label());
        writer.metadata(engine.pid(), 0, "thread_name", "engine");

        const TraceRing &ring = engine.ring();
        Tick last_tick = 0;
        // One span can be open per request track at a time (the
        // lifecycle phases are sequential), so open-span tracking
        // is a map keyed by request id.
        std::map<RequestId, TraceName> open;
        for (std::size_t i = 0; i < ring.size(); ++i) {
            const TraceEvent &event = ring.at(i);
            last_tick = std::max(last_tick, event.tick);
            const std::int64_t tid = eventTid(event);
            switch (event.phase) {
              case TracePhase::Begin:
              {
                const bool inserted =
                    open.try_emplace(event.id, event.name).second;
                LIGHTLLM_ASSERT(inserted, "request ", event.id,
                                " begins a span inside an open one");
                writer.event('B', engine.pid(), tid, event.tick,
                             event.name, &event);
                break;
              }
              case TracePhase::End:
              {
                auto it = open.find(event.id);
                if (it == open.end())
                    break;  // orphan End: Begin was overwritten
                writer.event('E', engine.pid(), tid, event.tick,
                             it->second, &event);
                open.erase(it);
                break;
              }
              case TracePhase::Instant:
              case TracePhase::Counter:
                writer.event(
                    event.phase == TracePhase::Counter ? 'C' : 'i',
                    engine.pid(), tid, event.tick, event.name, &event);
                break;
            }
        }
        // Close spans still open at the end of the run (requests in
        // flight when the simulation stopped).
        for (const auto &[id, name] : open) {
            writer.event('E', engine.pid(),
                         id == kInvalidRequestId ? 0 : id + 1,
                         last_tick, name, nullptr);
        }
    }

    // Shard-profiler samples live in their own pseudo-process so
    // the wall-clock data never mixes with the simulation-stable
    // engine tracks.
    bool shard_meta = false;
    for (const auto &shard : shards_) {
        if (shard.ring().size() == 0)
            continue;
        if (!shard_meta) {
            writer.metadata(0, 0, "process_name", "shards");
            shard_meta = true;
        }
        writer.metadata(0, shard.tid(), "thread_name",
                        shard.label());
        const TraceRing &ring = shard.ring();
        for (std::size_t i = 0; i < ring.size(); ++i) {
            const TraceEvent &event = ring.at(i);
            writer.event('i', 0, shard.tid(), event.tick,
                         event.name, &event);
        }
    }

    os << "\n],\"otherData\":{\"dropped_events\":"
       << totalDropped() << "}}\n";
}

void
TraceRecorder::writeRequestCsv(std::ostream &os) const
{
    struct Row
    {
        Tick queued = -1;
        Tick admitted = -1;
        Tick prefillDone = -1;
        Tick finished = -1;
        std::int64_t predicted = -1;
        std::int64_t trueOutput = -1;
        std::int64_t generated = -1;
        std::int64_t evictions = -1;
    };
    // Keyed by (pid, id): a request re-dispatched to another engine
    // (drain, disagg migration) gets one row per engine that saw it.
    std::map<std::pair<std::int32_t, RequestId>, Row> rows;

    for (const auto &engine : engines_) {
        const TraceRing &ring = engine.ring();
        for (std::size_t i = 0; i < ring.size(); ++i) {
            const TraceEvent &event = ring.at(i);
            if (event.id == kInvalidRequestId)
                continue;
            Row &row = rows[{engine.pid(), event.id}];
            switch (event.name) {
              case TraceName::Queued:
                if (event.phase == TracePhase::Begin &&
                    row.queued < 0) {
                    row.queued = event.tick;
                    row.trueOutput = event.arg2;
                }
                break;
              case TraceName::Admit:
                if (row.admitted < 0) {
                    row.admitted = event.tick;
                    row.predicted = event.arg0;
                    row.trueOutput = event.arg1;
                }
                break;
              case TraceName::Prefill:
                if (event.phase == TracePhase::End)
                    row.prefillDone = event.tick;
                break;
              case TraceName::Finish:
                row.finished = event.tick;
                row.generated = event.arg0;
                row.predicted = event.arg1;
                row.evictions = event.arg2;
                break;
              default:
                break;
            }
        }
    }

    os << "request_id,engine,queued_us,admitted_us,"
          "prefill_done_us,finished_us,predicted_output,"
          "true_output,generated,evictions\n";
    auto cell = [&os](std::int64_t value) {
        os << ',';
        if (value >= 0)
            os << value;
    };
    for (const auto &[key, row] : rows) {
        os << key.second << ','
           << engines_[static_cast<std::size_t>(key.first - 1)]
                  .label();
        cell(row.queued);
        cell(row.admitted);
        cell(row.prefillDone);
        cell(row.finished);
        cell(row.predicted);
        cell(row.trueOutput);
        cell(row.generated);
        cell(row.evictions);
        os << '\n';
    }
}

bool
TraceRecorder::writeChromeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeChromeJson(out);
    return static_cast<bool>(out);
}

bool
TraceRecorder::writeRequestCsvFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeRequestCsv(out);
    return static_cast<bool>(out);
}

} // namespace trace
} // namespace lightllm
