#include "trace/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/logging.hh"

namespace hdrd::trace
{

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &name,
                         std::uint32_t nthreads,
                         const std::string &fault_spec)
    : file_(path, std::ios::binary | std::ios::trunc), out_(file_)
{
    begin(name, nthreads, fault_spec);
}

TraceWriter::TraceWriter(std::ostream &out, const std::string &name,
                         std::uint32_t nthreads,
                         const std::string &fault_spec)
    : out_(out)
{
    begin(name, nthreads, fault_spec);
}

void
TraceWriter::begin(const std::string &name, std::uint32_t nthreads,
                   const std::string &fault_spec)
{
    if (!out_)
        return;
    start_ = out_.tellp();
    header_.nthreads = nthreads;
    const std::size_t n =
        std::min(name.size(), header_.name.size() - 1);
    std::memcpy(header_.name.data(), name.data(), n);
    const std::size_t f = std::min(fault_spec.size(),
                                   header_.fault_spec.size() - 1);
    std::memcpy(header_.fault_spec.data(), fault_spec.data(), f);
    // Reserve header space; patched with the count in finalize().
    out_.write(reinterpret_cast<const char *>(&header_),
               sizeof(header_));
    ok_ = static_cast<bool>(out_);
}

TraceWriter::~TraceWriter()
{
    if (ok_ && !finalized_)
        finalize();
}

void
TraceWriter::record(ThreadId tid, const runtime::Op &op)
{
    if (!ok_ || finalized_)
        return;
    const TraceRecord record = TraceRecord::fromOp(tid, op);
    out_.write(reinterpret_cast<const char *>(&record),
               sizeof(record));
    if (!out_) {
        // Disk full or similar: poison the writer so finalize()
        // reports the failure instead of leaving a silently short
        // trace behind.
        ok_ = false;
        return;
    }
    ++count_;
}

bool
TraceWriter::finalize()
{
    if (!ok_ || finalized_)
        return false;
    finalized_ = true;
    header_.record_count = count_;
    const std::streampos end = out_.tellp();
    out_.seekp(start_);
    out_.write(reinterpret_cast<const char *>(&header_),
               sizeof(header_));
    out_.seekp(end);
    if (file_.is_open())
        file_.close();
    return static_cast<bool>(out_);
}

const std::vector<runtime::Op> &
TraceData::threadOps(ThreadId tid) const
{
    hdrdAssert(tid < per_thread_.size(),
               "trace has no thread ", tid);
    return per_thread_[tid];
}

void
ByteQueue::consume(std::size_t n)
{
    pos_ += n;
    consumed_ += n;
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    } else if (pos_ >= 256 * 1024 && pos_ >= buf_.size() / 2) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
}

std::size_t
ByteQueue::read(char *dst, std::size_t n)
{
    n = std::min(n, size());
    std::memcpy(dst, data(), n);
    consume(n);
    return n;
}

TraceReader::TraceReader(ByteSource &source,
                         std::uint64_t total_bytes)
    : source_(source), total_bytes_(total_bytes)
{
}

bool
TraceReader::fillStash(std::size_t n)
{
    hdrdAssert(n <= stash_.size(), "stash overflow");
    while (stash_len_ < n) {
        const std::size_t got = source_.read(
            stash_.data() + stash_len_, n - stash_len_);
        if (got == 0)
            return false;
        stash_len_ += got;
    }
    return true;
}

bool
TraceReader::readHeader()
{
    if (header_ok_ || !error_.empty())
        return header_ok_;
    // kUnknownSize is the largest total, so it passes both size
    // floors below unchecked.
    if (total_bytes_ < sizeof(TraceHeaderV1)) {
        error_ = "truncated header ("
            + std::to_string(total_bytes_) + " bytes, need "
            + std::to_string(sizeof(TraceHeaderV1)) + ")";
        return false;
    }

    // Both header versions share the v1 prefix; the magic decides
    // whether the v2 metadata tail follows. The stash carries a
    // partial header across stalls, so a chunk boundary anywhere
    // inside it — including the first byte — resumes.
    if (!fillStash(sizeof(TraceHeaderV1))) {
        if (!ended_)
            return false; // stalled: retry after more bytes arrive
        error_ = "truncated header";
        return false;
    }
    TraceHeader header;
    std::memcpy(reinterpret_cast<char *>(&header), stash_.data(),
                sizeof(TraceHeaderV1));
    if (header.magic == kMagic) {
        if (total_bytes_ < sizeof(TraceHeader)) {
            error_ = "truncated v2 header ("
                + std::to_string(total_bytes_) + " bytes, need "
                + std::to_string(sizeof(TraceHeader)) + ")";
            return false;
        }
        if (!fillStash(sizeof(TraceHeader))) {
            if (!ended_)
                return false;
            error_ = "truncated v2 header";
            return false;
        }
        std::memcpy(header.fault_spec.data(),
                    stash_.data() + sizeof(TraceHeaderV1),
                    header.fault_spec.size());
    } else if (header.magic != kMagicV1) {
        error_ = "bad magic (not an hdrd trace?)";
        return false;
    }
    const std::uint64_t header_size = header.magic == kMagic
        ? sizeof(TraceHeader) : sizeof(TraceHeaderV1);
    stash_len_ = 0;
    if (header.nthreads == 0 || header.nthreads > 4096) {
        error_ = "implausible thread count "
            + std::to_string(header.nthreads);
        return false;
    }

    // The size-consistency checks need the total up front; without
    // it a short stream surfaces as truncation at the missing record,
    // and trailing bytes are the feeding layer's to reject.
    if (total_bytes_ != kUnknownSize) {
        const std::uint64_t payload = total_bytes_ - header_size;
        const std::uint64_t expected =
            header.record_count * sizeof(TraceRecord);
        if (header.record_count > payload / sizeof(TraceRecord)) {
            error_ = "truncated: header claims "
                + std::to_string(header.record_count)
                + " records but the file only holds "
                + std::to_string(payload / sizeof(TraceRecord));
            return false;
        }
        if (payload != expected) {
            error_ = std::to_string(payload - expected)
                + " bytes of trailing garbage after "
                + std::to_string(header.record_count) + " records";
            return false;
        }
    }

    name_.assign(header.name.data(),
                 strnlen(header.name.data(), header.name.size()));
    if (header.magic == kMagic) {
        fault_spec_.assign(
            header.fault_spec.data(),
            strnlen(header.fault_spec.data(),
                    header.fault_spec.size()));
        if (fault_spec_.empty())
            fault_spec_ = "none";
    }
    nthreads_ = header.nthreads;
    record_count_ = header.record_count;
    header_ok_ = true;
    return true;
}

std::size_t
TraceReader::next(TraceRecord *out, std::size_t max)
{
    if (!header_ok_ || !error_.empty() || consumed_ == record_count_)
        return 0;
    const std::uint64_t left = record_count_ - consumed_;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(max, left));
    std::size_t produced = 0;
    for (; produced < want; ++produced) {
        if (!fillStash(sizeof(TraceRecord))) {
            if (ended_)
                error_ = "truncated at record "
                    + std::to_string(consumed_) + " of "
                    + std::to_string(record_count_);
            return produced; // else stalled mid-record: resume
        }
        TraceRecord &record = out[produced];
        std::memcpy(&record, stash_.data(), sizeof(record));
        stash_len_ = 0;
        if (record.tid >= nthreads_) {
            error_ = "record " + std::to_string(consumed_)
                + " names unknown thread "
                + std::to_string(record.tid);
            return produced;
        }
        if (record.type > kMaxOpType) {
            error_ = "record " + std::to_string(consumed_)
                + " has invalid op type "
                + std::to_string(record.type);
            return produced;
        }
        if (record.type == static_cast<std::uint8_t>(runtime::OpType::kWork)
            && record.arg > kMaxWorkCycles) {
            error_ = "record " + std::to_string(consumed_)
                + " has work of " + std::to_string(record.arg)
                + " cycles, above the cap of "
                + std::to_string(kMaxWorkCycles);
            return produced;
        }
        ++consumed_;
    }
    return produced;
}

TraceData
TraceData::load(const std::string &path)
{
    TraceData data;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        data.error_ = "cannot open " + path;
        return data;
    }

    // Size the file up front so a corrupt header can't make us read
    // (or allocate for) records that cannot possibly exist.
    in.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0, std::ios::beg);

    IstreamSource source(in);
    TraceReader reader(source, file_size);
    reader.endOfStream();
    if (!reader.readHeader()) {
        data.error_ = reader.error();
        return data;
    }
    return fromReader(reader);
}

TraceData
TraceData::fromReader(TraceReader &reader)
{
    TraceData data;
    hdrdAssert(reader.error().empty() && reader.nthreads() > 0,
               "fromReader needs a successfully parsed header");
    data.name_ = reader.name();
    data.fault_spec_ = reader.faultSpec();
    data.per_thread_.resize(reader.nthreads());

    reader.endOfStream();
    TraceRecord batch[4096];
    for (;;) {
        const std::size_t n = reader.next(batch, std::size(batch));
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i)
            data.per_thread_[batch[i].tid].push_back(
                batch[i].toOp());
        data.total_ += n;
    }
    if (!reader.done()) {
        data.error_ = reader.error();
        data.per_thread_.clear();
        data.total_ = 0;
    }
    return data;
}

TraceData
TraceData::fromOps(std::string name,
                   std::vector<std::vector<runtime::Op>> per_thread)
{
    hdrdAssert(!per_thread.empty(),
               "in-memory trace needs at least one thread");
    TraceData data;
    data.name_ = std::move(name);
    data.per_thread_ = std::move(per_thread);
    for (const auto &ops : data.per_thread_)
        data.total_ += ops.size();
    return data;
}

bool
TraceData::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || !save(out))
        return false;
    out.close();
    return static_cast<bool>(out);
}

bool
TraceData::save(std::ostream &out) const
{
    TraceWriter writer(out, name_, nthreads(), fault_spec_);
    if (!writer.ok())
        return false;
    for (ThreadId tid = 0; tid < nthreads(); ++tid) {
        for (const runtime::Op &op : per_thread_[tid])
            writer.record(tid, op);
    }
    return writer.finalize();
}

} // namespace hdrd::trace
