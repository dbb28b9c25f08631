/**
 * @file
 * Trace capture and replay.
 *
 * Two formats cover the two simulator layers:
 *
 *  - request traces (`<issue-cycle> <hex-address> R|W <core>` per
 *    line) drive the full-system path open-loop; captureTrace()
 *    produces one from the synthetic generators so experiments can
 *    be archived and replayed bit-exactly, and external traces (e.g.
 *    converted DRAM command logs) can be fed in;
 *  - ACT traces (one row address per line) drive the ACT-stream
 *    engine via TracePattern, e.g. a recorded attacker pattern.
 *
 * Lines starting with '#' are comments; blank lines are ignored.
 * Both readers scan record lines with one std::from_chars-based field
 * scanner whose grammar is that of formatted istream extraction in
 * the classic locale: leading and trailing whitespace (including a
 * '\r' before the newline) is skipped, a number may carry a '+',
 * a line with a '-' anywhere is rejected, and hex fields accept
 * "0x"/"0X" prefixes.
 */

#ifndef WORKLOADS_TRACE_IO_HH
#define WORKLOADS_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/types.hh"
#include "workloads/act_patterns.hh"
#include "workloads/profiles.hh"

namespace graphene {
namespace workloads {

/** One memory request in a captured trace. */
struct TraceRecord
{
    Cycle issue{};
    Addr addr{};
    bool isWrite = false;
    unsigned coreId = 0;

    bool operator==(const TraceRecord &other) const = default;
};

/** Serialise @p records to @p os in the text format above. */
void writeTrace(std::ostream &os,
                const std::vector<TraceRecord> &records);

/**
 * Parse a request trace.
 *
 * Returns a Parse error — carrying the line number and the offending
 * text — on a malformed line, on trailing garbage after a record, on
 * a truncated final record (the stream ends without a newline, so the
 * last record may have been cut mid-field), and on a trace with no
 * records at all (an empty input is indistinguishable from a failed
 * capture and must not silently replay as "no traffic").
 */
Result<std::vector<TraceRecord>> readTrace(std::istream &is);

/**
 * Generate a request trace from a workload's synthetic generators:
 * each core contributes requests with its think-time gaps applied
 * back-to-back (service time zero), until @p horizon cycles. The
 * result is sorted by issue cycle.
 */
std::vector<TraceRecord>
captureTrace(const WorkloadSpec &workload,
             const dram::AddressMapper &mapper, Cycle horizon,
             std::uint64_t seed);

/** Serialise an ACT-level trace (one row per line). */
void writeActTrace(std::ostream &os, const std::vector<Row> &rows);

/**
 * Parse an ACT-level trace. Same error contract as readTrace():
 * malformed lines, truncated final records, and empty traces are
 * typed Parse errors, never aborts. Delegates to ActTraceCursor, so
 * the whole-file and chunked paths share one grammar.
 */
Result<std::vector<Row>> readActTrace(std::istream &is);

/**
 * Chunked iterator over an ACT-level trace stream: the
 * bounded-memory reader path behind src/serve's streaming ingest.
 * Each read() appends at most @p max rows, so peak buffering is
 * O(chunk) however long the trace is; the whole-file readActTrace()
 * delegates here.
 *
 * Error contract (same typed Parse errors as the whole-file path):
 *  - a malformed line, an out-of-range row, or trailing garbage is a
 *    Parse error carrying the line number and text;
 *  - a final record cut mid-field (EOF with no newline) is a Parse
 *    error — the chunked path must not silently accept a truncated
 *    tail that the whole-file path rejects;
 *  - a stream that dies mid-read (badbit) is an Io error, never a
 *    silent early end-of-trace;
 *  - a trace that ends with zero records is a Parse error, reported
 *    by the read() that observes the end.
 */
class ActTraceCursor
{
  public:
    /** @param is positioned at the start of the trace text. */
    explicit ActTraceCursor(std::istream &is) : _is(&is) {}

    /**
     * Append up to @p max rows to @p out. Returns the number
     * appended; 0 means the trace ended cleanly (every later call
     * keeps returning 0). Typed Parse/Io error on malformed input.
     */
    Result<std::size_t> read(std::vector<Row> &out, std::size_t max);

    /** Total records decoded so far. */
    std::uint64_t recordsRead() const { return _records; }

    /** True once the underlying stream ended cleanly. */
    bool atEnd() const { return _eof; }

  private:
    std::istream *_is;
    /// Line buffer kept across read() calls, so steady-state reads
    /// reuse its capacity.
    std::string _line;
    std::size_t _lineNo = 0;
    std::uint64_t _records = 0;
    bool _eof = false;
};

/** Replays a recorded row stream as an ActPattern (looping). */
class TracePattern : public ActPattern
{
  public:
    /** @param rows must be non-empty (checked contract). */
    explicit TracePattern(std::vector<Row> rows);

    std::string name() const override;
    Row next() override;

  private:
    std::vector<Row> _rows;
    std::size_t _idx = 0;
};

} // namespace workloads
} // namespace graphene

#endif // WORKLOADS_TRACE_IO_HH
