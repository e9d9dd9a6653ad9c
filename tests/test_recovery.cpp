// Crash-consistent durable state: the journal and snapshot loaders must
// land on the last-good state from ANY torn write — the truncation
// corpora here cut the serialized artifacts at every byte offset and
// prove recovery never reads past a tear, never aliases a short read as
// a CRC failure, and never resurrects a half-published image.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "arch/accelerator.h"
#include "common/stopwatch.h"
#include "deploy/image_io.h"
#include "deploy/journal.h"
#include "runtime/continual/checkpoint.h"
#include "runtime/recovery/durable_state.h"
#include "runtime/request_queue.h"
#include "sim/outage.h"

namespace msh {
namespace {

std::string temp_dir(const char* tag) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/msh_recovery_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string temp_file(const char* tag) {
  const std::string path =
      std::string(::testing::TempDir()) + "/msh_recovery_" + tag + ".bin";
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

QuantizedNmMatrix random_matrix(i64 k, i64 c, u64 seed) {
  Rng rng(seed);
  Tensor w = Tensor::randn(Shape{k, c}, rng);
  NmMask mask = select_nm_mask(w, kSparse1of4, GroupAxis::kRows);
  apply_mask(w, mask);
  return QuantizedNmMatrix::from_packed(NmPackedMatrix::pack(w, kSparse1of4));
}

// ---------------------------------------------------------------- journal

TEST(Journal, RoundTripsAppendedRecords) {
  const std::string path = temp_file("journal_rt");
  Journal journal(path);
  const std::vector<std::string> payloads = {"alpha", "", "gamma-delta"};
  for (const auto& p : payloads) journal.append(p);

  const JournalReplay replay = Journal::replay(path);
  EXPECT_EQ(replay.records, payloads);
  EXPECT_EQ(replay.bytes_dropped, 0);
  EXPECT_FALSE(replay.tail_torn);
  std::remove(path.c_str());
}

TEST(Journal, MissingFileReplaysEmpty) {
  const JournalReplay replay = Journal::replay(temp_file("journal_none"));
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.tail_torn);
}

// The load-bearing corpus: cut the journal at EVERY byte offset and
// prove replay returns exactly the fully-framed prefix — no torn record
// ever replays, no intact record is ever lost.
TEST(Journal, TruncationAtEveryByteOffsetReplaysLongestIntactPrefix) {
  const std::string path = temp_file("journal_corpus_src");
  Journal journal(path);
  const std::vector<std::string> payloads = {"first-record", "x",
                                             std::string(100, 'z')};
  for (const auto& p : payloads) journal.append(p);
  const std::string full = slurp(path);
  constexpr i64 kHeader = 12;  // magic + len + crc

  // Frame boundaries: a record is intact iff its whole frame made it.
  std::vector<size_t> boundaries = {0};
  for (const auto& p : payloads)
    boundaries.push_back(boundaries.back() + kHeader + p.size());
  ASSERT_EQ(boundaries.back(), full.size());

  const std::string cut_path = temp_file("journal_corpus_cut");
  for (size_t len = 0; len <= full.size(); ++len) {
    spit(cut_path, full.substr(0, len));
    const JournalReplay replay = Journal::replay(cut_path);
    size_t expect_intact = 0;
    while (expect_intact + 1 < boundaries.size() &&
           boundaries[expect_intact + 1] <= len)
      ++expect_intact;
    ASSERT_EQ(replay.records.size(), expect_intact) << "cut at " << len;
    for (size_t i = 0; i < expect_intact; ++i)
      EXPECT_EQ(replay.records[i], payloads[i]) << "cut at " << len;
    EXPECT_EQ(replay.bytes_replayed,
              static_cast<i64>(boundaries[expect_intact]));
    EXPECT_EQ(replay.bytes_dropped,
              static_cast<i64>(len - boundaries[expect_intact]));
    EXPECT_EQ(replay.tail_torn, len != boundaries[expect_intact]);
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(Journal, TornAppendHookLosesOnlyTheTornRecord) {
  const std::string path = temp_file("journal_torn");
  Journal journal(path);
  journal.append("committed-1");
  journal.append("committed-2");
  journal.append("torn-tail", /*torn_after_bytes=*/7);  // mid-header

  const JournalReplay replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[1], "committed-2");
  EXPECT_TRUE(replay.tail_torn);
  EXPECT_EQ(replay.bytes_dropped, 7);
  std::remove(path.c_str());
}

TEST(Journal, CorruptPayloadByteEndsReplayAtThatFrame) {
  const std::string path = temp_file("journal_flip");
  Journal journal(path);
  journal.append("record-one");
  journal.append("record-two");
  std::string bytes = slurp(path);
  bytes[12 + 3] ^= 0x40;  // flip a bit inside record-one's payload
  spit(path, bytes);

  const JournalReplay replay = Journal::replay(path);
  // CRC kills frame 1; frame 2 is unreachable past the bad frame (its
  // bytes cannot be trusted to be aligned).
  EXPECT_TRUE(replay.records.empty());
  EXPECT_TRUE(replay.tail_torn);
  std::remove(path.c_str());
}

// ----------------------------------------------------------- checkpoint

LearnerCheckpoint sample_checkpoint() {
  LearnerCheckpoint cp;
  cp.rounds = 5;
  cp.steps = 40;
  cp.samples_streamed = 640;
  cp.publishes = 2;
  cp.rollbacks = 1;
  cp.baseline_accuracy = 0.5;
  cp.best_accuracy = 0.625;
  cp.last_accuracy = 0.6;
  cp.image_generation = 2;
  Rng rng(7);
  cp.params.push_back(Tensor::randn(Shape{4, 3}, rng));
  cp.params.push_back(Tensor::randn(Shape{8}, rng));
  cp.velocity.push_back(Tensor::randn(Shape{4, 3}, rng));
  return cp;
}

TEST(LearnerCheckpoint, RoundTripsBitExact) {
  const LearnerCheckpoint cp = sample_checkpoint();
  const std::string blob = cp.serialize();
  const LearnerCheckpoint back =
      LearnerCheckpoint::deserialize(blob, "round-trip");
  EXPECT_EQ(back.serialize(), blob);  // bit-exact, fields included
  EXPECT_EQ(back.rounds, cp.rounds);
  EXPECT_EQ(back.samples_streamed, cp.samples_streamed);
  EXPECT_EQ(back.image_generation, cp.image_generation);
  ASSERT_EQ(back.params.size(), cp.params.size());
  EXPECT_EQ(back.params[0].shape(), cp.params[0].shape());
}

TEST(LearnerCheckpoint, EveryTruncationThrows) {
  const std::string blob = sample_checkpoint().serialize();
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(
        LearnerCheckpoint::deserialize(blob.substr(0, len), "corpus"),
        SimulationError)
        << "cut at " << len;
  }
  std::string padded = blob + "!";
  EXPECT_THROW(LearnerCheckpoint::deserialize(padded, "trailing"),
               SimulationError);
}

TEST(LearnerCheckpoint, WrappedElementCountRejected) {
  // A [2^32, 2^32] tensor has 2^64 elements, which wraps to 0 in i64: it
  // must be rejected, not read as an empty tensor with no payload.
  LearnerCheckpoint cp = sample_checkpoint();
  cp.params.clear();
  cp.velocity.clear();
  std::string blob = cp.serialize();
  // Both tensor lists are empty: replace them with one crafted entry.
  blob.resize(blob.size() - 2 * sizeof(u64));
  auto put = [&blob](const auto& value) {
    blob.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(u64{1});
  put(u32{2});
  put(i64{1} << 32);
  put(i64{1} << 32);
  put(u64{0});
  EXPECT_THROW(LearnerCheckpoint::deserialize(blob, "crafted"),
               SimulationError);
}

// ------------------------------------------------- image truncation corpus

// A v3 image cut at EVERY byte offset must refuse to load — and a short
// read must be reported as truncation, never aliased to a CRC mismatch.
TEST(DeploymentImage, TruncationAtEveryByteOffsetRejected) {
  DeploymentImage image;
  image.add("a", random_matrix(32, 4, 1));
  image.add("b", random_matrix(16, 4, 2));
  image.set_generation(3);
  const std::string blob = image.serialize();
  for (size_t len = 0; len < blob.size(); ++len) {
    try {
      DeploymentImage::deserialize(blob.substr(0, len), "corpus");
      FAIL() << "prefix of " << len << " bytes loaded";
    } catch (const SimulationError& e) {
      EXPECT_EQ(std::string(e.what()).find("CRC mismatch"),
                std::string::npos)
          << "cut at " << len << " aliased as CRC failure: " << e.what();
    }
  }
  // The full blob still loads, so the corpus proves tears, not breakage.
  EXPECT_EQ(DeploymentImage::deserialize(blob, "full").generation(), 3u);
}

// ---------------------------------------------------------- durable state

TEST(DurableState, LoadsNewestGeneration) {
  const std::string dir = temp_dir("newest");
  DurableState durable(dir);
  EXPECT_EQ(durable.load_last_good().image, nullptr);  // first boot

  DeploymentImage gen1;
  gen1.add("layer", random_matrix(32, 4, 3));
  gen1.set_generation(1);
  durable.publish_image(gen1);
  DeploymentImage gen2;
  gen2.add("layer", random_matrix(32, 4, 4));
  gen2.set_generation(2);
  durable.publish_image(gen2);

  const auto loaded = durable.load_last_good();
  ASSERT_NE(loaded.image, nullptr);
  EXPECT_EQ(loaded.generation, 2u);
  EXPECT_EQ(loaded.image->serialize(), gen2.serialize());
  EXPECT_EQ(loaded.candidates_skipped, 0);
  std::filesystem::remove_all(dir);
}

TEST(DurableState, CrashBeforeRenameKeepsPreviousGenerationAndCleansTemp) {
  const std::string dir = temp_dir("rename");
  DurableState durable(dir);
  DeploymentImage gen1;
  gen1.add("layer", random_matrix(32, 4, 5));
  gen1.set_generation(1);
  durable.publish_image(gen1);
  DeploymentImage gen2;
  gen2.add("layer", random_matrix(32, 4, 6));
  gen2.set_generation(2);
  durable.publish_image(gen2, DurableState::TornMode::kCrashBeforeRename);

  const auto loaded = durable.load_last_good();
  ASSERT_NE(loaded.image, nullptr);
  EXPECT_EQ(loaded.generation, 1u);
  // The stray temp from the crashed publish was cleaned up.
  EXPECT_FALSE(
      std::filesystem::exists(durable.image_path(2) + ".tmp"));
  std::filesystem::remove_all(dir);
}

// Partial publish (no atomic rename) at EVERY prefix length: the loader
// must always roll back to generation 1, byte-identical.
TEST(DurableState, PartialPublishAtEveryPrefixRollsBackToLastGood) {
  const std::string dir = temp_dir("partial");
  DurableState durable(dir);
  DeploymentImage gen1;
  gen1.add("layer", random_matrix(16, 4, 7));
  gen1.set_generation(1);
  durable.publish_image(gen1);
  const std::string gen1_bytes = gen1.serialize();

  DeploymentImage gen2;
  gen2.add("layer", random_matrix(16, 4, 8));
  gen2.set_generation(2);
  const i64 gen2_size = static_cast<i64>(gen2.serialize().size());

  for (i64 cut = 0; cut < gen2_size; ++cut) {
    durable.publish_image(gen2, DurableState::TornMode::kPartialPublish,
                          cut);
    const auto loaded = durable.load_last_good();
    ASSERT_NE(loaded.image, nullptr) << "cut at " << cut;
    EXPECT_EQ(loaded.generation, 1u) << "cut at " << cut;
    EXPECT_EQ(loaded.image->serialize(), gen1_bytes) << "cut at " << cut;
    EXPECT_EQ(loaded.candidates_skipped, 1) << "cut at " << cut;
  }
  // And the complete publish is loadable, proving only tears rolled back.
  durable.publish_image(gen2);
  EXPECT_EQ(durable.load_last_good().generation, 2u);
  std::filesystem::remove_all(dir);
}

TEST(DurableState, GenerationMismatchBetweenNameAndHeaderIsSkipped) {
  const std::string dir = temp_dir("mismatch");
  DurableState durable(dir);
  DeploymentImage gen1;
  gen1.add("layer", random_matrix(16, 4, 9));
  gen1.set_generation(1);
  durable.publish_image(gen1);
  // An image whose header says 1 but parked under generation 5's name:
  // a tampered or misplaced file, not durable truth.
  std::filesystem::copy_file(durable.image_path(1), durable.image_path(5));
  const auto loaded = durable.load_last_good();
  ASSERT_NE(loaded.image, nullptr);
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.candidates_skipped, 1);
  std::filesystem::remove_all(dir);
}

TEST(DurableState, ReplaysNewestIntactCheckpointPastTornTail) {
  const std::string dir = temp_dir("journal");
  DurableState durable(dir);
  EXPECT_EQ(durable.replay_last_checkpoint().checkpoint, nullptr);

  LearnerCheckpoint cp1 = sample_checkpoint();
  cp1.rounds = 1;
  LearnerCheckpoint cp2 = sample_checkpoint();
  cp2.rounds = 2;
  durable.append_checkpoint(cp1);
  durable.append_checkpoint(cp2);
  // Power died mid-append of the third checkpoint.
  LearnerCheckpoint cp3 = sample_checkpoint();
  cp3.rounds = 3;
  durable.append_checkpoint(cp3, /*torn_after_bytes=*/25);

  const auto replay = durable.replay_last_checkpoint();
  ASSERT_NE(replay.checkpoint, nullptr);
  EXPECT_EQ(replay.checkpoint->rounds, 2);
  EXPECT_EQ(replay.records_replayed, 2);
  EXPECT_EQ(replay.bytes_dropped, 25);
  EXPECT_TRUE(replay.tail_torn);
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- outage schedule

TEST(OutageSchedule, DeterministicSortedAndSpaced) {
  OutageScheduleOptions options;
  options.seed = 99;
  options.outages = 5;
  options.horizon_us = 60e6;
  options.min_gap_us = 2e6;
  const auto a = make_outage_schedule(options);
  const auto b = make_outage_schedule(options);
  ASSERT_EQ(a.size(), 5u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_us, b[i].at_us);  // seeded: bit-identical
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].outage_s, b[i].outage_s);
    EXPECT_GE(a[i].at_us, 0.0);
    EXPECT_LT(a[i].at_us, options.horizon_us);
    EXPECT_GE(a[i].outage_s, options.min_outage_s);
    EXPECT_LE(a[i].outage_s, options.max_outage_s);
    if (i > 0) {
      EXPECT_GE(a[i].at_us - a[i - 1].at_us, options.min_gap_us);
    }
  }
  options.seed = 100;
  const auto c = make_outage_schedule(options);
  EXPECT_NE(a[0].at_us, c[0].at_us);  // seed actually steers it
}

// ------------------------------------------------------- timeout rounding

TEST(Stopwatch, MicrosecondsCeilNeverTruncatesToZero) {
  EXPECT_EQ(microseconds_ceil(0.0).count(), 0);
  EXPECT_EQ(microseconds_ceil(-5.0).count(), 0);
  EXPECT_EQ(microseconds_ceil(1e-9).count(), 1);
  EXPECT_EQ(microseconds_ceil(0.4).count(), 1);
  EXPECT_EQ(microseconds_ceil(1.0).count(), 1);
  EXPECT_EQ(microseconds_ceil(2000.5).count(), 2001);
}

TEST(Stopwatch, MicrosecondsCeilSaturatesHugeAndInfiniteBudgets) {
  const i64 cap = static_cast<i64>(kMaxTimeoutUs);
  EXPECT_EQ(microseconds_ceil(std::numeric_limits<f64>::infinity()).count(),
            cap);
  EXPECT_EQ(microseconds_ceil(1e300).count(), cap);
  EXPECT_EQ(microseconds_ceil(std::numeric_limits<f64>::quiet_NaN()).count(),
            0);
  // The cap still converts to steady_clock ticks added to now().
  const auto far = std::chrono::steady_clock::now() + microseconds_ceil(1e300);
  EXPECT_GT(far, std::chrono::steady_clock::now());
}

// A fractional pop() timeout must wait the ceiling of its budget, not
// truncate to a zero-wait spin (the old static_cast<i64> bug).
TEST(RequestQueue, FractionalPopTimeoutActuallyWaits) {
  RequestQueue queue(4);
  const f64 t0 = monotonic_now_us();
  EXPECT_FALSE(queue.pop(2500.7));
  EXPECT_GE(monotonic_now_us() - t0, 2500.0);
  // And the explicit zero stays a non-blocking poll.
  const f64 t1 = monotonic_now_us();
  EXPECT_FALSE(queue.pop(0.0));
  EXPECT_LT(monotonic_now_us() - t1, 1e6);
}

TEST(RequestQueue, ReopenAfterCloseReadmits) {
  RequestQueue queue(4);
  queue.close();
  EXPECT_TRUE(queue.closed());
  queue.reopen();
  EXPECT_FALSE(queue.closed());
  detail::PendingRequest request;
  request.id = 1;
  request.rows = 1;
  request.images = Tensor(Shape{1, 1, 2, 2});
  request.submit_us = monotonic_now_us();
  request.state = std::make_shared<detail::ResponseState>();
  EXPECT_EQ(queue.push(std::move(request)), PushResult::kOk);
}

}  // namespace
}  // namespace msh
