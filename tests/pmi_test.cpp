// PMI key-value space: values are word records (pmi::Record).  Round trips
// through every read path -- blocking get, non-blocking find, the abort-key
// and deadline waits -- plus mailbox order and the key count perfbench
// reports as pmi.kvs_keys.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pmi/pmi.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace pmi {
namespace {

TEST(KvsRecord, PutGetFindRoundTrip) {
  sim::Simulator sim;
  Kvs kvs(sim);
  const Record ep{7, 0xdeadbeef0000ull, 42, ~0ull, 0};
  Record got;
  sim::Tick got_at = -1;
  // The reader parks before the record exists and wakes when it lands.
  sim.spawn(
      [](sim::Simulator& s, Kvs& k, Record& out,
         sim::Tick& at) -> sim::Task<void> {
        const Record* rec = co_await k.get("ep:1:0:0");
        out = *rec;
        at = s.now();
      }(sim, kvs, got, got_at),
      "reader");
  sim.spawn(
      [](sim::Simulator& s, Kvs& k, const Record& v) -> sim::Task<void> {
        co_await s.delay(sim::usec(2.0));
        EXPECT_EQ(k.find("ep:1:0:0"), nullptr);
        k.put("ep:1:0:0", v);
      }(sim, kvs, ep),
      "writer");
  sim.run();
  EXPECT_EQ(got, ep);
  EXPECT_EQ(got_at, sim::usec(2.0));
  ASSERT_NE(kvs.find("ep:1:0:0"), nullptr);
  EXPECT_EQ(*kvs.find("ep:1:0:0"), ep);
  EXPECT_TRUE(kvs.has("ep:1:0:0"));
  // Empty records are markers: present, zero words.
  kvs.put("ft:dead:3", {});
  ASSERT_NE(kvs.find("ft:dead:3"), nullptr);
  EXPECT_TRUE(kvs.find("ft:dead:3")->empty());
}

TEST(KvsRecord, GetUnlessReturnsValueOrAbortsOnAbortKeyFirst) {
  sim::Simulator sim;
  Kvs kvs(sim);
  const Record sentinel{99};
  const Record* aborted = &sentinel;
  const Record* answered = nullptr;
  sim.spawn(
      [](Kvs& k, const Record*& out) -> sim::Task<void> {
        out = co_await k.get_unless("rcv:1:0:1", "rcv:1:0:dead");
      }(kvs, aborted),
      "aborted");
  sim.spawn(
      [](Kvs& k, const Record*& out) -> sim::Task<void> {
        out = co_await k.get_unless("rcv:0:1:1", "rcv:0:1:dead");
      }(kvs, answered),
      "answered");
  sim.spawn(
      [](sim::Simulator& s, Kvs& k) -> sim::Task<void> {
        co_await s.delay(sim::usec(1.0));
        k.put_recovery("rcv:1:0:dead", {});
        k.put_recovery("rcv:0:1:1", {17, 4096});
        co_await s.delay(sim::usec(1.0));
        // Landing after the abort changes nothing for the released waiter.
        k.put_recovery("rcv:1:0:1", {18, 0});
      }(sim, kvs),
      "publisher");
  sim.run();
  EXPECT_EQ(aborted, nullptr);
  ASSERT_NE(answered, nullptr);
  EXPECT_EQ(*answered, (Record{17, 4096}));
  EXPECT_EQ(kvs.recovery_version(), 3u);
}

TEST(KvsRecord, GetUnlessBeforeReleasesAtTheDeadline) {
  sim::Simulator sim;
  Kvs kvs(sim);
  const Record sentinel{1};
  const Record* timed_out = &sentinel;
  sim::Tick released_at = -1;
  const Record* in_time = nullptr;
  sim.spawn(
      [](sim::Simulator& s, Kvs& k, const Record*& out,
         sim::Tick& at) -> sim::Task<void> {
        out = co_await k.get_unless_before("never", "nor-this",
                                           s.now() + sim::usec(5.0));
        at = s.now();
      }(sim, kvs, timed_out, released_at),
      "timed-out");
  sim.spawn(
      [](sim::Simulator& s, Kvs& k, const Record*& out) -> sim::Task<void> {
        out = co_await k.get_unless_before("soon", "abort",
                                           s.now() + sim::usec(5.0));
      }(sim, kvs, in_time),
      "in-time");
  sim.spawn(
      [](sim::Simulator& s, Kvs& k) -> sim::Task<void> {
        co_await s.delay(sim::usec(3.0));
        k.put("soon", {1, 2, 3});
      }(sim, kvs),
      "publisher");
  sim.run();
  EXPECT_EQ(timed_out, nullptr);
  EXPECT_EQ(released_at, sim::usec(5.0));
  ASSERT_NE(in_time, nullptr);
  EXPECT_EQ(*in_time, (Record{1, 2, 3}));
}

TEST(KvsRecord, MailboxKeepsPublishOrder) {
  sim::Simulator sim;
  Kvs kvs(sim);
  EXPECT_EQ(kvs.mail_count("lzm:0"), 0u);
  const std::vector<Record> sent{{0, 1, 0, 0}, {1, 2, 3, 40}, {4, 1, 0, 0}};
  const std::vector<Record>& box = kvs.mail("lzm:0");
  for (const Record& m : sent) kvs.append("lzm:0", m);
  EXPECT_EQ(kvs.mail_count("lzm:0"), sent.size());
  // The reference fetched before the appends sees them all, in order.
  EXPECT_EQ(box, sent);
  EXPECT_EQ(kvs.mail_count("lzm:1"), 0u);
}

TEST(KvsRecord, SizeCountsOneKeyPerRecord) {
  sim::Simulator sim;
  Kvs kvs(sim);
  // A five-word endpoint record plus adaptive extras is still one key.
  kvs.put("ep:0:1:0", {1, 2, 3, 4, 5, 6, 7, 8, 9});
  kvs.put("ep:1:0:0", {1, 2, 3, 4, 5});
  EXPECT_EQ(kvs.size(), 2u);
  // Mailboxes are not keys.
  kvs.append("lzm:0", {0, 1, 0, 0});
  EXPECT_EQ(kvs.size(), 2u);
  // A re-put replaces the record under the same key.
  kvs.put("ep:1:0:0", {9});
  EXPECT_EQ(kvs.size(), 2u);
  EXPECT_EQ(*kvs.find("ep:1:0:0"), (Record{9}));
}

}  // namespace
}  // namespace pmi
