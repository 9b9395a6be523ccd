// DiskCache: the persistent result tier under papd's in-memory LRU.
//
// Pins the trust semantics documented in serve/diskcache.hpp: an entry is
// only served after the magic, the exact key bytes, the exact file size
// and the payload checksum all verify — so restarts keep warm results,
// while truncation, corruption and filename-hash collisions degrade to a
// miss, never a wrong answer. The service-level tests assert the tier is
// wired under the LRU (disk hit on a cold LRU, refill, counter).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "serve/diskcache.hpp"
#include "serve/service.hpp"

namespace pap::serve {
namespace {

class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::string("diskcache_test-") + info->name() + "-" +
           std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

TEST_F(DiskCacheTest, DisabledWithoutDirectory) {
  DiskCache cache{""};
  EXPECT_FALSE(cache.enabled());
  cache.store("k", "v");  // no-op, must not crash or create anything
  EXPECT_FALSE(cache.load("k").has_value());
}

TEST_F(DiskCacheTest, RoundTripAndMiss) {
  DiskCache cache{dir_};
  ASSERT_TRUE(cache.enabled());
  EXPECT_FALSE(cache.load("absent").has_value());

  const std::string key = "wcd_bound\n{\"alpha\":1}";
  const std::string payload = R"({"label":"wcd","metrics":{"d":42.5}})";
  cache.store(key, payload);
  const auto hit = cache.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);
  // A different key with the same op prefix is still a miss.
  EXPECT_FALSE(cache.load("wcd_bound\n{\"alpha\":2}").has_value());
}

TEST_F(DiskCacheTest, SurvivesRestart) {
  const std::string key = "admission_check\n{\"tasks\":3}";
  const std::string payload = std::string(8 * 1024, 'r') + "-tail";
  {
    DiskCache cache{dir_};
    cache.store(key, payload);
  }
  // A fresh instance over the same directory — the restart case.
  DiskCache reopened{dir_};
  const auto hit = reopened.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);
}

TEST_F(DiskCacheTest, TruncatedEntryIsAMiss) {
  DiskCache cache{dir_};
  const std::string key = "nc_delay\n{\"rate\":1.5}";
  cache.store(key, "payload-bytes-that-matter");
  const std::string path = cache.path_for(key);
  const std::string blob = read_file(path);
  ASSERT_GT(blob.size(), 4u);
  // A crash mid-write (without the temp+rename publish) would look like
  // this: the file exists but the tail is missing.
  write_file(path, blob.substr(0, blob.size() - 3));
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST_F(DiskCacheTest, CorruptedPayloadByteIsAMiss) {
  DiskCache cache{dir_};
  const std::string key = "nc_backlog\n{\"burst\":8}";
  cache.store(key, "0123456789abcdef");
  const std::string path = cache.path_for(key);
  std::string blob = read_file(path);
  ASSERT_FALSE(blob.empty());
  blob[blob.size() - 4] ^= 0x20;  // flip one payload bit
  write_file(path, blob);
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST_F(DiskCacheTest, GarbageFileIsAMiss) {
  DiskCache cache{dir_};
  const std::string key = "ping\n{}";
  cache.store(key, "pong");
  // Overwrite with bytes that never came from this cache.
  write_file(cache.path_for(key), "not a cache entry at all\n");
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST_F(DiskCacheTest, FilenameCollisionServesAMissNotAForeignPayload) {
  DiskCache cache{dir_};
  const std::string key_a = "wcd_bound\n{\"row\":1}";
  const std::string key_b = "wcd_bound\n{\"row\":2}";
  cache.store(key_b, "payload-of-b");
  // Simulate a 64-bit filename-hash collision: key_a's slot holds a fully
  // valid entry... for key_b. The header's exact-key check must reject it
  // (the PR-2 collision rule: the filename hash is an index, not identity).
  std::filesystem::copy_file(cache.path_for(key_b), cache.path_for(key_a),
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_FALSE(cache.load(key_a).has_value());
  // And key_b itself still verifies.
  const auto b = cache.load(key_b);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, "payload-of-b");
}

TEST_F(DiskCacheTest, EmptyKeyAndEmptyPayloadRoundTrip) {
  DiskCache cache{dir_};
  cache.store("", "");
  const auto hit = cache.load("");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->empty());
}

// ---- service integration: the disk tier under the LRU -------------------

std::string wcd_line(int id, double write_gbps) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"wcd_bound\",\"params\":{\"write_gbps\":" +
         std::to_string(write_gbps) + "}}";
}

TEST_F(DiskCacheTest, ServiceServesFromDiskAcrossRestart) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_dir = dir_;
  std::string computed;
  {
    AnalysisService first(cfg);
    computed = first.handle(wcd_line(1, 4.5));
    ASSERT_NE(computed.find("\"ok\":true"), computed.npos) << computed;
    EXPECT_EQ(first.counts("wcd_bound").disk_hits, 0u);
    first.shutdown();
  }
  // A brand-new service over the same directory: its LRU is empty, so the
  // answer must come from disk — byte-identical to the computed one.
  AnalysisService second(cfg);
  const std::string from_disk = second.handle(wcd_line(1, 4.5));
  EXPECT_EQ(from_disk, computed);
  EXPECT_EQ(second.counts("wcd_bound").disk_hits, 1u);

  // The disk hit refilled the LRU: the next identical request is an
  // in-memory hit, and the disk-hit count stays put.
  const std::string from_lru = second.handle(wcd_line(1, 4.5));
  EXPECT_EQ(from_lru, computed);
  EXPECT_EQ(second.counts("wcd_bound").disk_hits, 1u);
  EXPECT_EQ(second.counts("wcd_bound").cache_hits, 1u);
}

// Regression: the disk probe used to run inline in submit(), i.e. on the
// caller — which in papd is a reactor event-loop thread, so with a
// cache_dir every LRU miss paid a blocking file read inside the event
// loop, adding disk latency to every connection on that reactor. The
// probe must run on the worker that picks the job up (coalescing still
// means one waiter pays the read).
TEST_F(DiskCacheTest, DiskProbeRunsOnWorkerNotSubmittingThread) {
  using namespace std::chrono_literals;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_dir = dir_;
  {
    AnalysisService warm(cfg);
    const std::string computed = warm.handle(wcd_line(1, 6.5));
    ASSERT_NE(computed.find("\"ok\":true"), computed.npos) << computed;
  }

  // Hold the single worker right before it would probe the disk.
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> at_gate{0};
  cfg.before_dispatch = [&](const std::string&) {
    ++at_gate;
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return open; });
  };

  // Fresh service: cold LRU, warm disk.
  AnalysisService second(cfg);
  std::mutex reply_mu;
  std::condition_variable reply_cv;
  std::string reply;
  std::atomic<bool> replied{false};
  second.submit(wcd_line(1, 6.5), [&](std::string r) {
    {
      std::lock_guard<std::mutex> lk(reply_mu);
      reply = std::move(r);
      replied = true;
    }
    reply_cv.notify_all();
  });
  // submit() returned without an answer: the disk was not read inline on
  // the submitting thread (pre-fix it was, and the reply fired here).
  EXPECT_FALSE(replied.load());

  // The job reached the (held) worker; releasing it serves the disk hit.
  for (int i = 0; i < 20000 && at_gate.load() < 1; ++i) {
    std::this_thread::sleep_for(100us);
  }
  ASSERT_EQ(at_gate.load(), 1) << "disk-warm job never reached a worker";
  EXPECT_FALSE(replied.load());
  {
    std::lock_guard<std::mutex> lk(mu);
    open = true;
  }
  cv.notify_all();
  {
    std::unique_lock<std::mutex> lk(reply_mu);
    ASSERT_TRUE(reply_cv.wait_for(lk, 10s, [&] { return replied.load(); }));
  }
  EXPECT_NE(reply.find("\"ok\":true"), reply.npos) << reply;
  EXPECT_EQ(second.counts("wcd_bound").disk_hits, 1u);
  second.shutdown();
}

TEST_F(DiskCacheTest, ServiceWithoutCacheDirNeverTouchesDisk) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService service(cfg);
  const std::string reply = service.handle(wcd_line(2, 5.25));
  ASSERT_NE(reply.find("\"ok\":true"), reply.npos);
  EXPECT_EQ(service.counts("wcd_bound").disk_hits, 0u);
  EXPECT_FALSE(std::filesystem::exists(dir_));
}

}  // namespace
}  // namespace pap::serve
