/**
 * @file
 * Trace writing and reading.
 *
 * TraceWriter encodes records into a file or a caller's stream
 * (header patched on finalize); TraceReader incrementally parses and
 * validates a trace from any byte source (header first, then record
 * batches), so consumers can reject a bad trace before buffering its
 * body; TraceData loads and validates a whole trace into memory,
 * partitioned per thread for replay.
 */

#ifndef HDRD_TRACE_TRACE_IO_HH
#define HDRD_TRACE_TRACE_IO_HH

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "runtime/op.hh"
#include "trace/trace_format.hh"

namespace hdrd::trace
{

/**
 * Encodes operation records as a TRC2 image: the one encoder behind
 * trace files and in-memory images alike. The header is reserved up
 * front and patched with the record count by finalize(), so the sink
 * must be seekable (a file or a string stream).
 */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and reserve the header.
     * @param name program name stored in the header
     * @param nthreads thread count of the recorded program
     * @param fault_spec canonical fault spec of the recording run
     *        ("none" when the signal path is clean)
     */
    TraceWriter(const std::string &path, const std::string &name,
                std::uint32_t nthreads,
                const std::string &fault_spec = "none");

    /**
     * Encode into the caller-owned @p out, starting at its current
     * put position; finalize() leaves it positioned after the last
     * record. Parameters as for the path form.
     */
    TraceWriter(std::ostream &out, const std::string &name,
                std::uint32_t nthreads,
                const std::string &fault_spec = "none");

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** True when the sink opened and took the header. */
    bool ok() const { return ok_; }

    /** Append one operation. */
    void record(ThreadId tid, const runtime::Op &op);

    /**
     * Patch the header with the final count (and close the file of
     * the path form).
     * @return false when any write (including earlier record()
     *         calls) failed; the image should then be discarded.
     */
    bool finalize();

    /** Records written so far. */
    std::uint64_t recorded() const { return count_; }

  private:
    /** Fill in and reserve the header at the sink's put position. */
    void begin(const std::string &name, std::uint32_t nthreads,
               const std::string &fault_spec);

    /** The path form's own sink; unused by the stream form. */
    std::ofstream file_;
    std::ostream &out_;
    std::streampos start_;
    TraceHeader header_;
    std::uint64_t count_ = 0;
    bool ok_ = false;
    bool finalized_ = false;
};

/**
 * Abstract pull-based byte source for streaming trace parsing.
 *
 * The reader never seeks, so a source can wrap a plain file, an
 * in-memory buffer, or a socket carrying a length-prefixed trace
 * payload.
 */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;

    /**
     * Read up to @p n bytes into @p dst.
     * @return bytes actually read; 0 when none are available (the
     *         reader takes that for a stall until endOfStream(),
     *         then for truncation).
     */
    virtual std::size_t read(char *dst, std::size_t n) = 0;
};

/** ByteSource over a std::istream (files, string streams). */
class IstreamSource : public ByteSource
{
  public:
    explicit IstreamSource(std::istream &in) : in_(in) {}

    std::size_t read(char *dst, std::size_t n) override
    {
        in_.read(dst, static_cast<std::streamsize>(n));
        return static_cast<std::size_t>(in_.gcount());
    }

  private:
    std::istream &in_;
};

/**
 * ByteSource over bytes appended as they arrive (socket reads, upload
 * chunks) and consumed from the front; the consumed prefix is
 * compacted away once it dominates the buffer.
 */
class ByteQueue : public ByteSource
{
  public:
    void append(const char *data, std::size_t n) { buf_.append(data, n); }

    /** Room for @p n bytes at the back; commit() keeps some. */
    char *reserve(std::size_t n)
    {
        tail_ = buf_.size();
        buf_.resize(tail_ + n);
        return buf_.data() + tail_;
    }

    /** Keep the first @p n bytes of the last reserve(). */
    void commit(std::size_t n) { buf_.resize(tail_ + n); }

    /** Unconsumed bytes. */
    std::size_t size() const { return buf_.size() - pos_; }
    const char *data() const { return buf_.data() + pos_; }

    /** Drop @p n bytes from the front. */
    void consume(std::size_t n);

    /** Bytes consumed since construction. */
    std::uint64_t consumed() const { return consumed_; }

    std::size_t read(char *dst, std::size_t n) override;

  private:
    std::string buf_;
    std::size_t pos_ = 0;
    std::size_t tail_ = 0;
    std::uint64_t consumed_ = 0;
};

/**
 * Incremental, validating, resumable trace parser: the one decoder of
 * TRC2 bytes, whether they come from a file, a buffered upload or a
 * stream.
 *
 * Usage: construct over a ByteSource, call readHeader() — all
 * header-level validation happens here, before a single record byte
 * is consumed — then pull record batches with next() until done().
 * Any validation failure (bad magic, implausible header, truncation,
 * invalid record) poisons the reader with a precise error(); a
 * poisoned reader yields no further records.
 *
 * One rule governs a short read: a source that runs dry is a stall
 * until endOfStream() is declared, and a truncation after. On a stall
 * the reader stashes the partial header or record (a cut may fall at
 * any byte, a record's first included), and readHeader()/next()
 * return false/0 with an empty error() — starved() — to be retried
 * once the source holds more bytes.
 *
 * A known total size (file size, framed payload length) only adds the
 * header-vs-size checks: a body too short for its declared record
 * count, or one with trailing bytes, is refused at the header. With
 * kUnknownSize a short stream surfaces as truncation at the missing
 * record instead, and trailing bytes are the caller's to detect.
 * Either way the reader pulls exactly the header and the declared
 * records, never a byte past them, so the source may already hold
 * whatever follows the trace (the next pipelined frame).
 *
 * TraceData::load() and fromReader() declare the end themselves;
 * hdrd_served uses the reader directly so a bad trace is rejected
 * from its header without buffering the (possibly huge) body.
 */
class TraceReader
{
  public:
    /** total_bytes of a trace whose length is not declared. */
    static constexpr std::uint64_t kUnknownSize = ~0ull;

    /**
     * @param source byte stream positioned at the first header byte
     * @param total_bytes declared total size of the trace in bytes,
     *        or kUnknownSize
     */
    TraceReader(ByteSource &source, std::uint64_t total_bytes);

    /**
     * Parse and validate the header.
     * @return false when the header is invalid (see error()) or
     *         still incomplete (error() empty: retry after feeding
     *         the source).
     */
    bool readHeader();

    /**
     * Read and validate up to @p max records into @p out.
     * @return records produced, which stops short at the first
     *         incomplete or invalid record; 0 once done(), poisoned
     *         (see error()) or starved (feed the source and retry).
     */
    std::size_t next(TraceRecord *out, std::size_t max);

    /**
     * Declare that the source holds every byte it ever will. An
     * incomplete header or record after this poisons the reader
     * with a truncation error on the next readHeader()/next() call.
     */
    void endOfStream() { ended_ = true; }

    /** True when every declared record was consumed successfully. */
    bool done() const
    {
        return header_ok_ && error_.empty()
            && consumed_ == record_count_;
    }

    /**
     * True while the reader is healthy but blocked on more input
     * (the retry condition described above).
     */
    bool starved() const
    {
        return error_.empty() && !done() && !ended_;
    }

    /** Why parsing failed (empty while healthy). */
    const std::string &error() const { return error_; }

    /** Records successfully consumed so far. */
    std::uint64_t consumed() const { return consumed_; }

    /** Header fields (valid after a successful readHeader()). */
    const std::string &name() const { return name_; }
    const std::string &faultSpec() const { return fault_spec_; }
    std::uint32_t nthreads() const { return nthreads_; }
    std::uint64_t recordCount() const { return record_count_; }

  private:
    /**
     * Accumulate until the stash holds @p n bytes.
     * @return true when the stash is full; false when the source ran
     *         dry first (a resumable stall, unless endOfStream()).
     */
    bool fillStash(std::size_t n);

    ByteSource &source_;
    std::uint64_t total_bytes_;
    std::string error_;
    std::string name_;
    std::string fault_spec_ = "none";
    std::uint32_t nthreads_ = 0;
    std::uint64_t record_count_ = 0;
    std::uint64_t consumed_ = 0;
    bool header_ok_ = false;
    bool ended_ = false;
    /** Partial header/record carried across stalls. */
    std::array<char, sizeof(TraceHeader)> stash_{};
    std::size_t stash_len_ = 0;
};

/**
 * A fully loaded, validated trace.
 */
class TraceData
{
  public:
    /**
     * Load @p path.
     * @return the trace, or an empty object whose error() explains
     *         what was wrong (bad magic, truncation, invalid record,
     *         declared record count inconsistent with the file size).
     */
    static TraceData load(const std::string &path);

    /**
     * Build a trace directly from per-thread operation vectors (the
     * shrinker mutates candidate traces in memory without touching
     * disk for every attempt).
     */
    static TraceData fromOps(
        std::string name,
        std::vector<std::vector<runtime::Op>> per_thread);

    /**
     * Drain @p reader (whose readHeader() must already have
     * succeeded) into a loaded trace. Its source must already hold
     * the whole trace: this declares endOfStream(). On any
     * mid-stream failure the result is empty with the reader's
     * error — never a partial trace.
     */
    static TraceData fromReader(TraceReader &reader);

    /** Write this trace to @p path. @return false on I/O failure. */
    bool save(const std::string &path) const;

    /** Encode this trace into @p out (seekable; see TraceWriter). */
    bool save(std::ostream &out) const;

    /** True when the load succeeded. */
    bool ok() const { return error_.empty(); }

    /** Why the load failed (empty on success). */
    const std::string &error() const { return error_; }

    /** Program name from the header. */
    const std::string &name() const { return name_; }

    /**
     * Fault spec the trace was recorded under ("none" for clean runs
     * and every v1 trace). Round-trips through save()/load().
     */
    const std::string &faultSpec() const { return fault_spec_; }

    /** Set the fault spec stored by save(). */
    void setFaultSpec(std::string spec)
    {
        fault_spec_ = std::move(spec);
    }

    /** Thread count. */
    std::uint32_t nthreads() const
    {
        return static_cast<std::uint32_t>(per_thread_.size());
    }

    /** Total operations across threads. */
    std::uint64_t totalOps() const { return total_; }

    /** Thread @p tid's operations in program order. */
    const std::vector<runtime::Op> &threadOps(ThreadId tid) const;

  private:
    std::string error_;
    std::string name_;
    std::string fault_spec_ = "none";
    std::uint64_t total_ = 0;
    std::vector<std::vector<runtime::Op>> per_thread_;
};

} // namespace hdrd::trace

#endif // HDRD_TRACE_TRACE_IO_HH
