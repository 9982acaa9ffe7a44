/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span brackets one call from the benchmark into a msgsim module.
 * Its name is "<layer>.<what>"; the layer is the part before the dot.
 * Spans are appended to a vector and written out when the run ends,
 * so recording costs two clock reads and a push per span.  When no
 * log is active (the untraced run) a span costs one pointer test.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SpanRec
{
    const char *name = "";
    const char *tag = ""; ///< substrate or scenario, "" when none
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1; ///< index into the log, -1 = root
    std::uint32_t job = 0;
};

class SpanLog
{
  public:
    /** The log spans record into; null when tracing is off. */
    static SpanLog *active;

    std::vector<SpanRec> spans;
    std::uint32_t job = 0;

    std::int32_t
    open(const char *name, const char *tag)
    {
        const auto idx = static_cast<std::int32_t>(spans.size());
        spans.push_back({name, tag, nowNs(), 0, top_, job});
        top_ = idx;
        return idx;
    }

    void
    close(std::int32_t idx)
    {
        SpanRec &s = spans[static_cast<std::size_t>(idx)];
        s.end = nowNs();
        top_ = s.parent;
    }

  private:
    std::int32_t top_ = -1;
};

/** RAII span; records only while a SpanLog is active. */
class Span
{
  public:
    explicit Span(const char *name, const char *tag = "")
        : log_(SpanLog::active),
          idx_(log_ ? log_->open(name, tag) : -1)
    {
    }

    ~Span()
    {
        if (log_)
            log_->close(idx_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog *log_;
    std::int32_t idx_;
};

/** Layer of a span name: the text before the first dot. */
inline std::string
spanLayer(const char *name)
{
    const std::string s(name);
    return s.substr(0, s.find('.'));
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
