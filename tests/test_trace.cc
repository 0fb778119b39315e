/**
 * @file
 * Tests for the trace record/replay subsystem: format round-trips,
 * validation of corrupt inputs, and replay equivalence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "instr/cost_model.hh"
#include "runtime/simulator.hh"
#include "trace/trace_program.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

using namespace hdrd;
using namespace hdrd::runtime;
using namespace hdrd::trace;
using namespace hdrd::workloads;

namespace
{

/** Temp file path helper (unique per test). */
std::string
tmpPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "hdrd_trace_" + tag
        + ".trc";
}

std::unique_ptr<SyntheticProgram>
smallProgram()
{
    Builder b("traceme", 3);
    const Region scratch = b.alloc(64 * 1024);
    const Region word = b.alloc(8);
    const std::uint64_t lock = b.newLock();
    for (ThreadId t = 0; t < 3; ++t) {
        b.sweep(t, scratch.slice(t, 3), 500, 0.4);
        b.lockedRmw(t, word, 20, lock);
        b.barrierAll(100 + t);  // appended per t-loop: same for all
    }
    return b.build();
}

/** Record @p program into @p path by running it natively. */
std::uint64_t
recordProgram(runtime::Program &program, const std::string &path)
{
    TraceWriter writer(path, program.name(), program.numThreads());
    EXPECT_TRUE(writer.ok());
    RecordingProgram recording(program, writer);
    SimConfig config;
    config.mode = instr::ToolMode::kNative;
    Simulator::runWith(recording, config);
    const auto n = writer.recorded();
    EXPECT_TRUE(writer.finalize());
    return n;
}

/** Overwrite bytes at @p offset in @p path (golden-trace mangling). */
void
mangle(const std::string &path, std::streamoff offset,
       const void *bytes, std::size_t n)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(offset);
    f.write(static_cast<const char *>(bytes),
            static_cast<std::streamsize>(n));
}

/** Write a small valid golden trace and return its path. */
std::string
goldenTrace(const char *tag)
{
    const auto path = tmpPath(tag);
    TraceWriter writer(path, "golden", 2);
    writer.record(0, Op::write(0x10, 1));
    writer.record(1, Op::read(0x18, 2));
    writer.record(0, Op::work(3));
    EXPECT_TRUE(writer.finalize());
    return path;
}

} // namespace

TEST(TraceFormat, RecordRoundTripsOp)
{
    Op op = Op::write(0x1234, 9);
    op.arg = 77;
    op.arg2 = 3;
    const TraceRecord record = TraceRecord::fromOp(5, op);
    EXPECT_EQ(record.tid, 5u);
    const Op back = record.toOp();
    EXPECT_EQ(back.type, OpType::kWrite);
    EXPECT_EQ(back.addr, 0x1234u);
    EXPECT_EQ(back.arg, 77u);
    EXPECT_EQ(back.arg2, 3u);
    EXPECT_EQ(back.site, 9u);
}

TEST(TraceIo, WriteThenLoad)
{
    const auto path = tmpPath("basic");
    {
        TraceWriter writer(path, "basic", 2);
        ASSERT_TRUE(writer.ok());
        writer.record(0, Op::write(0x10, 1));
        writer.record(1, Op::read(0x20, 2));
        writer.record(0, Op::work(5));
        EXPECT_EQ(writer.recorded(), 3u);
        EXPECT_TRUE(writer.finalize());
    }
    const TraceData data = TraceData::load(path);
    ASSERT_TRUE(data.ok()) << data.error();
    EXPECT_EQ(data.name(), "basic");
    EXPECT_EQ(data.nthreads(), 2u);
    EXPECT_EQ(data.totalOps(), 3u);
    ASSERT_EQ(data.threadOps(0).size(), 2u);
    ASSERT_EQ(data.threadOps(1).size(), 1u);
    EXPECT_EQ(data.threadOps(0)[0].type, OpType::kWrite);
    EXPECT_EQ(data.threadOps(0)[1].type, OpType::kWork);
    EXPECT_EQ(data.threadOps(1)[0].addr, 0x20u);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileReportsError)
{
    const TraceData data = TraceData::load("/nonexistent/file.trc");
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("cannot open"), std::string::npos);
}

TEST(TraceIo, BadMagicRejected)
{
    const auto path = tmpPath("badmagic");
    {
        std::ofstream out(path, std::ios::binary);
        out << "definitely not a trace file, padded to beyond the "
               "header size so the magic check is what fails here..";
    }
    const TraceData data = TraceData::load(path);
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("magic"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedRecordsRejected)
{
    const auto path = tmpPath("trunc");
    {
        TraceWriter writer(path, "t", 1);
        writer.record(0, Op::work(1));
        writer.record(0, Op::work(2));
        writer.finalize();
    }
    // Chop the last record in half.
    {
        std::fstream f(path, std::ios::in | std::ios::out
                                 | std::ios::binary | std::ios::ate);
        const auto size = static_cast<long>(f.tellg());
        f.close();
        std::ifstream in(path, std::ios::binary);
        std::vector<char> bytes(static_cast<std::size_t>(size - 16));
        in.read(bytes.data(), static_cast<long>(bytes.size()));
        in.close();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<long>(bytes.size()));
    }
    const TraceData data = TraceData::load(path);
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("truncated"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, InvalidThreadIdRejected)
{
    const auto path = tmpPath("badtid");
    {
        TraceWriter writer(path, "t", 2);
        writer.record(7, Op::work(1));  // tid 7 >= nthreads 2
        writer.finalize();
    }
    const TraceData data = TraceData::load(path);
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("unknown thread"), std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Corruption regressions: take a valid golden trace, mangle specific
// bytes, and check the loader rejects it with a pointed error instead
// of crashing or silently misreading. Header layout (TRC2): magic @0,
// nthreads @8, record_count @16, name @24, fault_spec @88, records
// from @216 (= sizeof(TraceHeader)).
// ---------------------------------------------------------------------

TEST(TraceCorruption, EmptyFileRejected)
{
    const auto path = tmpPath("empty");
    { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
    const TraceData data = TraceData::load(path);
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("truncated header"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceCorruption, ShortHeaderRejected)
{
    const auto path = tmpPath("short");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "HDRDTRC1 and then nothing";
    }
    const TraceData data = TraceData::load(path);
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("truncated header"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceCorruption, InflatedRecordCountRejected)
{
    const auto path = goldenTrace("inflate");
    // Claim far more records than the file holds: a loader that
    // trusted the header would allocate/read past the end.
    const std::uint64_t huge = 1'000'000'000ULL;
    mangle(path, 16, &huge, sizeof(huge));
    const TraceData data = TraceData::load(path);
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("truncated: header claims"),
              std::string::npos)
        << data.error();
    std::remove(path.c_str());
}

TEST(TraceCorruption, UndercountWithTrailingBytesRejected)
{
    const auto path = goldenTrace("undercount");
    // Claim fewer records than the file holds: the stale tail would
    // silently vanish on replay if the loader accepted it.
    const std::uint64_t fewer = 2;
    mangle(path, 16, &fewer, sizeof(fewer));
    const TraceData data = TraceData::load(path);
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("trailing garbage"),
              std::string::npos)
        << data.error();
    std::remove(path.c_str());
}

TEST(TraceCorruption, AppendedGarbageRejected)
{
    const auto path = goldenTrace("appended");
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        out << "junk";
    }
    const TraceData data = TraceData::load(path);
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("trailing garbage"),
              std::string::npos)
        << data.error();
    std::remove(path.c_str());
}

TEST(TraceCorruption, ZeroThreadCountRejected)
{
    const auto path = goldenTrace("zerothreads");
    const std::uint32_t zero = 0;
    mangle(path, 8, &zero, sizeof(zero));
    const TraceData data = TraceData::load(path);
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("implausible thread count"),
              std::string::npos)
        << data.error();
    std::remove(path.c_str());
}

TEST(TraceCorruption, AbsurdThreadCountRejected)
{
    const auto path = goldenTrace("bigthreads");
    const std::uint32_t absurd = 1u << 20;
    mangle(path, 8, &absurd, sizeof(absurd));
    const TraceData data = TraceData::load(path);
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("implausible thread count"),
              std::string::npos)
        << data.error();
    std::remove(path.c_str());
}

TEST(TraceCorruption, InvalidOpTypeByteRejected)
{
    const auto path = goldenTrace("badop");
    // Second record's type byte: header + one record + 4.
    const std::uint8_t bogus = 0xEE;
    mangle(path, sizeof(trace::TraceHeader) + 32 + 4, &bogus,
           sizeof(bogus));
    const TraceData data = TraceData::load(path);
    EXPECT_FALSE(data.ok());
    EXPECT_NE(data.error().find("invalid op type"),
              std::string::npos)
        << data.error();
    std::remove(path.c_str());
}

TEST(TraceIo, FromOpsSaveLoadRoundTrips)
{
    std::vector<std::vector<Op>> per_thread(2);
    per_thread[0] = {Op::write(0x10, 1), Op::work(9)};
    per_thread[1] = {Op::read(0x20, 2)};
    const TraceData built =
        TraceData::fromOps("inmem", per_thread);
    EXPECT_TRUE(built.ok());
    EXPECT_EQ(built.nthreads(), 2u);
    EXPECT_EQ(built.totalOps(), 3u);

    const auto path = tmpPath("fromops");
    ASSERT_TRUE(built.save(path));
    const TraceData loaded = TraceData::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    EXPECT_EQ(loaded.name(), "inmem");
    ASSERT_EQ(loaded.nthreads(), 2u);
    ASSERT_EQ(loaded.threadOps(0).size(), 2u);
    EXPECT_EQ(loaded.threadOps(0)[1].type, OpType::kWork);
    EXPECT_EQ(loaded.threadOps(1)[0].addr, 0x20u);
    std::remove(path.c_str());
}

TEST(TraceIo, FaultSpecRoundTrips)
{
    const auto path = tmpPath("faultspec");
    {
        TraceWriter writer(path, "faulty", 1,
                           "drop=0.5,skid=16,coalesce=32");
        ASSERT_TRUE(writer.ok());
        writer.record(0, Op::write(0x10, 1));
        EXPECT_TRUE(writer.finalize());
    }
    const TraceData loaded = TraceData::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    EXPECT_EQ(loaded.faultSpec(), "drop=0.5,skid=16,coalesce=32");

    // And through the TraceData save path.
    std::vector<std::vector<Op>> per_thread(1);
    per_thread[0] = {Op::work(1)};
    TraceData built = TraceData::fromOps("resave", per_thread);
    built.setFaultSpec(loaded.faultSpec());
    ASSERT_TRUE(built.save(path));
    const TraceData reloaded = TraceData::load(path);
    ASSERT_TRUE(reloaded.ok()) << reloaded.error();
    EXPECT_EQ(reloaded.faultSpec(), "drop=0.5,skid=16,coalesce=32");
    std::remove(path.c_str());
}

TEST(TraceIo, DefaultFaultSpecIsNone)
{
    const auto path = tmpPath("nofaults");
    {
        TraceWriter writer(path, "clean", 1);
        ASSERT_TRUE(writer.ok());
        writer.record(0, Op::work(1));
        EXPECT_TRUE(writer.finalize());
    }
    const TraceData loaded = TraceData::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    EXPECT_EQ(loaded.faultSpec(), "none");
    std::remove(path.c_str());
}

TEST(TraceIo, V1HeaderStillLoads)
{
    // Hand-build a v1 trace (88-byte header, old magic): the loader
    // must accept it and report a clean fault spec.
    const auto path = tmpPath("v1compat");
    {
        TraceHeaderV1 header;
        header.nthreads = 1;
        header.record_count = 1;
        const char name[] = "legacy";
        std::memcpy(header.name.data(), name, sizeof(name));
        const TraceRecord record =
            TraceRecord::fromOp(0, Op::write(0x40, 3));
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char *>(&header),
                  sizeof(header));
        out.write(reinterpret_cast<const char *>(&record),
                  sizeof(record));
        ASSERT_TRUE(out.good());
    }
    const TraceData loaded = TraceData::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    EXPECT_EQ(loaded.name(), "legacy");
    EXPECT_EQ(loaded.faultSpec(), "none");
    ASSERT_EQ(loaded.threadOps(0).size(), 1u);
    EXPECT_EQ(loaded.threadOps(0)[0].addr, 0x40u);
    std::remove(path.c_str());
}

TEST(TraceIo, SaveToUnwritablePathFails)
{
    std::vector<std::vector<Op>> per_thread(1);
    per_thread[0] = {Op::work(1)};
    const TraceData built = TraceData::fromOps("x", per_thread);
    EXPECT_FALSE(built.save("/nonexistent/dir/x.trc"));
}

// ---------------------------------------------------------------------
// Streaming reader: the chunked TraceReader API used by hdrd_served
// must validate the header before touching record bytes, hand back
// records in arbitrary batch sizes, and poison itself (never yield a
// partial trace) when the stream dies mid-record.
// ---------------------------------------------------------------------

namespace
{

/**
 * ByteSource that serves a prefix of an in-memory trace image and
 * then reports end-of-stream — a socket whose peer died mid-transfer,
 * while the framing still claims the full length.
 */
class CutSource : public trace::ByteSource
{
  public:
    CutSource(const std::string &bytes, std::size_t cut)
        : bytes_(bytes), cut_(cut)
    {
    }

    std::size_t read(char *dst, std::size_t n) override
    {
        const std::size_t avail = cut_ - pos_;
        n = std::min(n, avail);
        std::memcpy(dst, bytes_.data() + pos_, n);
        pos_ += n;
        return n;
    }

  private:
    const std::string &bytes_;
    std::size_t cut_;
    std::size_t pos_ = 0;
};

/** Read a whole file into a string. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open());
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(TraceReader, ChunkedBatchesMatchWholeLoad)
{
    const auto path = goldenTrace("chunked");
    const std::string image = slurp(path);

    CutSource source(image, image.size());
    TraceReader reader(source, image.size());
    ASSERT_TRUE(reader.readHeader()) << reader.error();
    EXPECT_EQ(reader.name(), "golden");
    EXPECT_EQ(reader.nthreads(), 2u);
    EXPECT_EQ(reader.recordCount(), 3u);

    // Pull one record at a time: 3 batches, then exhaustion.
    TraceRecord record;
    std::size_t batches = 0;
    while (reader.next(&record, 1) == 1)
        ++batches;
    EXPECT_EQ(batches, 3u);
    EXPECT_TRUE(reader.done()) << reader.error();
    EXPECT_EQ(reader.consumed(), 3u);

    // And the wrapper agrees with the one-shot loader.
    CutSource source2(image, image.size());
    TraceReader reader2(source2, image.size());
    ASSERT_TRUE(reader2.readHeader());
    const TraceData streamed = TraceData::fromReader(reader2);
    const TraceData whole = TraceData::load(path);
    ASSERT_TRUE(streamed.ok()) << streamed.error();
    ASSERT_TRUE(whole.ok());
    EXPECT_EQ(streamed.totalOps(), whole.totalOps());
    EXPECT_EQ(streamed.threadOps(0).size(),
              whole.threadOps(0).size());
    std::remove(path.c_str());
}

TEST(TraceReader, HeaderValidatedBeforeRecords)
{
    // A bad magic must be caught by readHeader() with zero record
    // bytes consumed — the demand the daemon makes of the reader.
    std::string image(sizeof(trace::TraceHeader) + 32, '\0');
    std::memcpy(image.data(), "NOTATRCE", 8);
    CutSource source(image, image.size());
    TraceReader reader(source, image.size());
    EXPECT_FALSE(reader.readHeader());
    EXPECT_NE(reader.error().find("magic"), std::string::npos);
    TraceRecord record;
    EXPECT_EQ(reader.next(&record, 1), 0u);
    EXPECT_FALSE(reader.done());
}

TEST(TraceReader, MidStreamTruncationPoisonsWithoutPartialLoad)
{
    const auto path = goldenTrace("cutstream");
    const std::string image = slurp(path);

    // Cut inside the second record: the source claims the full
    // length (framing) but delivers only a prefix.
    const std::size_t cut = sizeof(trace::TraceHeader) + 32 + 16;
    CutSource source(image, cut);
    TraceReader reader(source, image.size());
    ASSERT_TRUE(reader.readHeader()) << reader.error();

    TraceRecord batch[8];
    EXPECT_EQ(reader.next(batch, 1), 1u);  // first record is whole
    EXPECT_EQ(reader.next(batch, 8), 0u);  // then the stream dies
    EXPECT_FALSE(reader.done());
    EXPECT_EQ(reader.error(), "truncated at record 1 of 3");

    // fromReader never yields a partial trace.
    CutSource source2(image, cut);
    TraceReader reader2(source2, image.size());
    ASSERT_TRUE(reader2.readHeader());
    const TraceData data = TraceData::fromReader(reader2);
    EXPECT_FALSE(data.ok());
    EXPECT_EQ(data.error(), "truncated at record 1 of 3");
    EXPECT_EQ(data.totalOps(), 0u);
    EXPECT_EQ(data.nthreads(), 0u);
    std::remove(path.c_str());
}

namespace
{

/**
 * ByteSource with a movable stall point: serves bytes of an image up
 * to a limit, then reports 0 (starved) until the limit is raised —
 * a socket that has delivered only part of the stream so far.
 */
class StallSource : public trace::ByteSource
{
  public:
    explicit StallSource(const std::string &bytes) : bytes_(bytes) {}

    std::size_t read(char *dst, std::size_t n) override
    {
        const std::size_t avail = limit_ - pos_;
        n = std::min(n, avail);
        std::memcpy(dst, bytes_.data() + pos_, n);
        pos_ += n;
        return n;
    }

    void allow(std::size_t limit) { limit_ = limit; }

  private:
    const std::string &bytes_;
    std::size_t limit_ = 0;
    std::size_t pos_ = 0;
};

} // namespace

TEST(ByteQueue, AppendsConsumesAndCompacts)
{
    ByteQueue queue;
    queue.append("abc", 3);
    char out[8] = {};
    EXPECT_EQ(queue.read(out, 2), 2u);
    EXPECT_EQ(std::string(out, 2), "ab");
    EXPECT_EQ(queue.consumed(), 2u);

    // reserve/commit keeps only what was written.
    std::memcpy(queue.reserve(4), "defg", 4);
    queue.commit(2);
    ASSERT_EQ(queue.size(), 3u);
    EXPECT_EQ(std::string(queue.data(), 3), "cde");
    EXPECT_EQ(queue.read(out, sizeof(out)), 3u);
    EXPECT_EQ(queue.read(out, sizeof(out)), 0u);  // dry, not an error

    // Past the compaction threshold the unread tail survives intact.
    std::string big(600 * 1024, '\0');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>(i * 7);
    queue.append(big.data(), big.size());
    queue.consume(400 * 1024);
    EXPECT_EQ(std::string(queue.data(), queue.size()),
              big.substr(400 * 1024));
    EXPECT_EQ(queue.consumed(), 5u + 400 * 1024);
}

TEST(TraceReader, ResumesAcrossEveryChunkBoundary)
{
    // Streaming mode must survive a chunk boundary at EVERY byte
    // offset — in particular one splitting a record exactly at its
    // first (prefix) byte, where a resume path that forgot its
    // stashed partial bytes would misparse the rest of the stream.
    const auto path = goldenTrace("boundary");
    const std::string image = slurp(path);

    for (std::size_t cut = 1; cut < image.size(); ++cut) {
        StallSource source(image);
        TraceReader reader(source,
                           trace::TraceReader::kUnknownSize);
        source.allow(cut);

        // Phase 1: pull until starved at the boundary.
        std::vector<TraceRecord> records;
        if (reader.readHeader()) {
            TraceRecord record;
            while (reader.next(&record, 1) == 1)
                records.push_back(record);
        }
        ASSERT_TRUE(reader.error().empty())
            << "cut=" << cut << ": " << reader.error();
        ASSERT_TRUE(reader.starved()) << "cut=" << cut;

        // Phase 2: the rest arrives; parsing must complete cleanly.
        source.allow(image.size());
        ASSERT_TRUE(reader.readHeader())
            << "cut=" << cut << ": " << reader.error();
        TraceRecord record;
        while (reader.next(&record, 1) == 1)
            records.push_back(record);
        ASSERT_TRUE(reader.done())
            << "cut=" << cut << ": " << reader.error();
        ASSERT_EQ(records.size(), 3u) << "cut=" << cut;
        EXPECT_EQ(records[0].toOp().addr, 0x10u) << "cut=" << cut;
        EXPECT_EQ(records[1].toOp().addr, 0x18u) << "cut=" << cut;
        EXPECT_EQ(records[2].toOp().type,
                  runtime::OpType::kWork)
            << "cut=" << cut;
    }
    std::remove(path.c_str());
}

TEST(TraceReader, StreamingEndMidRecordPoisons)
{
    // endOfStream() with a record split at its first byte must
    // surface truncation, never a short success.
    const auto path = goldenTrace("endsplit");
    const std::string image = slurp(path);
    const std::size_t cut = sizeof(trace::TraceHeader) + 32 + 1;

    StallSource source(image);
    TraceReader reader(source, trace::TraceReader::kUnknownSize);
    source.allow(cut);
    ASSERT_TRUE(reader.readHeader()) << reader.error();
    TraceRecord record;
    EXPECT_EQ(reader.next(&record, 1), 1u);
    EXPECT_EQ(reader.next(&record, 1), 0u);
    EXPECT_TRUE(reader.starved());

    reader.endOfStream();
    EXPECT_EQ(reader.next(&record, 1), 0u);
    EXPECT_FALSE(reader.done());
    EXPECT_EQ(reader.error(), "truncated at record 1 of 3");
    std::remove(path.c_str());
}

TEST(TraceReader, TruncatedHeaderStreamRejected)
{
    const auto path = goldenTrace("cuthdr");
    const std::string image = slurp(path);
    CutSource source(image, 40);  // less than one header
    TraceReader reader(source, image.size());
    EXPECT_FALSE(reader.readHeader());
    EXPECT_NE(reader.error().find("truncated header"),
              std::string::npos)
        << reader.error();
    std::remove(path.c_str());
}

TEST(TraceReplay, RecordedRunReplaysIdentically)
{
    const auto path = tmpPath("replay");
    auto original = smallProgram();
    const auto recorded_ops = recordProgram(*original, path);
    EXPECT_GT(recorded_ops, 0u);

    // Reference run of a fresh instance of the same program.
    auto reference = smallProgram();
    SimConfig config;
    config.mode = instr::ToolMode::kContinuous;
    const auto ref = Simulator::runWith(*reference, config);

    // Replay under the same config: identical behaviour.
    TraceData data = TraceData::load(path);
    ASSERT_TRUE(data.ok()) << data.error();
    TraceProgram replay(std::move(data));
    EXPECT_EQ(replay.name(), "traceme.replay");
    const auto rep = Simulator::runWith(replay, config);

    EXPECT_EQ(rep.total_ops, ref.total_ops);
    EXPECT_EQ(rep.mem_accesses, ref.mem_accesses);
    EXPECT_EQ(rep.sync_ops, ref.sync_ops);
    EXPECT_EQ(rep.wall_cycles, ref.wall_cycles);
    EXPECT_EQ(rep.reports.uniqueCount(), ref.reports.uniqueCount());
    std::remove(path.c_str());
}

TEST(TraceReplay, ReplayUnderDifferentRegime)
{
    // The point of traces: capture once, replay under any analysis
    // configuration.
    const auto path = tmpPath("whatif");
    auto original = smallProgram();
    recordProgram(*original, path);

    TraceData data = TraceData::load(path);
    ASSERT_TRUE(data.ok());
    TraceProgram replay(std::move(data));

    SimConfig demand_cfg;
    demand_cfg.mode = instr::ToolMode::kDemand;
    const auto result = Simulator::runWith(replay, demand_cfg);
    EXPECT_GT(result.total_ops, 0u);
    std::remove(path.c_str());
}

TEST(TraceReplay, RacyWorkloadTraceKeepsRaces)
{
    const auto path = tmpPath("racy");
    const auto *info =
        workloads::findWorkload("micro.racy_counter");
    WorkloadParams params;
    params.scale = 0.05;
    auto prog = info->factory(params);
    recordProgram(*prog, path);

    TraceData data = TraceData::load(path);
    ASSERT_TRUE(data.ok());
    TraceProgram replay(std::move(data));
    SimConfig config;
    config.mode = instr::ToolMode::kContinuous;
    const auto result = Simulator::runWith(replay, config);
    EXPECT_GT(result.reports.uniqueCount(), 0u);
    std::remove(path.c_str());
}

TEST(TraceReplay, ReplayTwiceIsDeterministic)
{
    const auto path = tmpPath("deterministic");
    auto original = smallProgram();
    recordProgram(*original, path);
    TraceData d1 = TraceData::load(path);
    TraceData d2 = TraceData::load(path);
    ASSERT_TRUE(d1.ok());
    TraceProgram p1(std::move(d1)), p2(std::move(d2));
    SimConfig config;
    config.mode = instr::ToolMode::kDemand;
    const auto a = Simulator::runWith(p1, config);
    const auto b = Simulator::runWith(p2, config);
    EXPECT_EQ(a.wall_cycles, b.wall_cycles);
    EXPECT_EQ(a.analyzed_accesses, b.analyzed_accesses);
    std::remove(path.c_str());
}
