// Lock manager and transaction rollback tests.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "engine/database.h"
#include "engine/table.h"
#include "txn/lock_manager.h"

namespace rewinddb {
namespace {

// --------------------------- lock manager ------------------------------

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(2, "k", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Holds(1, "k", LockMode::kShared));
  EXPECT_TRUE(lm.Holds(2, "k", LockMode::kShared));
}

TEST(LockManagerTest, ExclusiveConflictsTimeout) {
  LockManager lm(/*timeout_micros=*/50'000);
  EXPECT_TRUE(lm.Acquire(1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(2, "k", LockMode::kExclusive).IsAborted());
  EXPECT_TRUE(lm.Acquire(2, "k", LockMode::kShared).IsAborted());
}

TEST(LockManagerTest, TryAcquireReturnsBusy) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.TryAcquire(2, "k", LockMode::kShared).IsBusy());
  EXPECT_TRUE(lm.TryAcquire(2, "other", LockMode::kShared).ok());
}

TEST(LockManagerTest, ReentrantAndUpgrade) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(1, "k", LockMode::kShared).ok());
  // Sole holder upgrades.
  EXPECT_TRUE(lm.Acquire(1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Holds(1, "k", LockMode::kExclusive));
  // X covers a later S request.
  EXPECT_TRUE(lm.Acquire(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Holds(1, "k", LockMode::kExclusive));
}

TEST(LockManagerTest, ReleaseAllWakesWaiters) {
  LockManager lm(/*timeout_micros=*/2'000'000);
  ASSERT_TRUE(lm.Acquire(1, "k", LockMode::kExclusive).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status s = lm.Acquire(2, "k", LockMode::kExclusive);
    acquired = s.ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_TRUE(lm.Holds(2, "k", LockMode::kExclusive));
}

TEST(LockManagerTest, ReleaseAllClearsEverything) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(1, "b", LockMode::kExclusive).ok());
  EXPECT_EQ(lm.LockedKeyCount(), 2u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.LockedKeyCount(), 0u);
}

TEST(LockManagerTest, RowLockKeyDistinguishesTrees) {
  EXPECT_NE(RowLockKey(1, "abc"), RowLockKey(2, "abc"));
  EXPECT_NE(RowLockKey(1, "abc"), RowLockKey(1, "abd"));
  EXPECT_EQ(RowLockKey(1, "abc"), RowLockKey(1, "abc"));
}

// ------------------------ rollback integration -------------------------

class RollbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_txn" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
    auto db = Database::Create(dir_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    Schema schema({{"id", ColumnType::kInt32}, {"val", ColumnType::kString}},
                  1);
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->CreateTable(txn, "t", schema).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(RollbackTest, CheckpointAttWaitsForAPublishInFlight) {
  // A record gets its LSN -- possibly below a checkpoint's begin record
  // -- before the transaction's last_lsn shows it. The checkpoint's
  // ATT capture must wait for that publish instead of missing the
  // transaction, which analysis starting at the begin record would
  // then never undo.
  Transaction* txn = db_->Begin();
  txn->publishing++;  // mid-publish, and the transaction's first record
  std::atomic<bool> captured{false};
  std::vector<AttEntry> att;
  std::thread checkpoint([&] {
    att = db_->txns()->ActiveTransactions();
    captured = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(captured.load());
  txn->last_lsn = 4242;
  txn->publishing++;
  checkpoint.join();
  ASSERT_EQ(att.size(), 1u);
  EXPECT_EQ(att[0].txn_id, txn->id);
  EXPECT_EQ(att[0].last_lsn, 4242u);
  txn->last_lsn = kInvalidLsn;  // nothing was really published
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(RollbackTest, AbortUndoesInserts) {
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* txn = db_->Begin();
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(table->Insert(txn, {i, std::string("v")}).ok());
  }
  ASSERT_TRUE(db_->Abort(txn).ok());
  EXPECT_EQ(*table->Count(), 0u);
}

TEST_F(RollbackTest, AbortUndoesDeletesAndUpdates) {
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* setup = db_->Begin();
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(setup && table->Insert(setup, {i, std::string("orig")}).ok());
  }
  ASSERT_TRUE(db_->Commit(setup).ok());

  Transaction* txn = db_->Begin();
  ASSERT_TRUE(table->Delete(txn, Row{5}).ok());
  ASSERT_TRUE(table->Update(txn, {7, std::string("changed")}).ok());
  ASSERT_TRUE(table->Insert(txn, {100, std::string("new")}).ok());
  ASSERT_TRUE(db_->Abort(txn).ok());

  EXPECT_EQ(*table->Count(), 20u);
  auto r5 = table->Get(nullptr, {5});
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ((*r5)[1].AsString(), "orig");
  auto r7 = table->Get(nullptr, {7});
  ASSERT_TRUE(r7.ok());
  EXPECT_EQ((*r7)[1].AsString(), "orig");
  EXPECT_TRUE(table->Get(nullptr, {100}).status().IsNotFound());
}

TEST_F(RollbackTest, AbortReleasesLocks) {
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* t1 = db_->Begin();
  ASSERT_TRUE(table->Insert(t1, {1, std::string("a")}).ok());
  ASSERT_TRUE(db_->Abort(t1).ok());
  // A second transaction can take the same key immediately.
  Transaction* t2 = db_->Begin();
  EXPECT_TRUE(table->Insert(t2, {1, std::string("b")}).ok());
  ASSERT_TRUE(db_->Commit(t2).ok());
  auto r = table->Get(nullptr, {1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[1].AsString(), "b");
}

TEST_F(RollbackTest, AbortAfterRowsMovedBySplits) {
  // The aborting transaction's rows move to other pages via splits
  // caused by a second committed transaction; logical undo must still
  // find them (the reason rollback is logical, paper section 4.1).
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* loser = db_->Begin();
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(table->Insert(loser, {i * 100, std::string("loser")}).ok());
  }
  Transaction* winner = db_->Begin();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        table->Insert(winner, {i * 100 + 7, std::string(64, 'w')}).ok());
  }
  ASSERT_TRUE(db_->Commit(winner).ok());
  ASSERT_TRUE(db_->Abort(loser).ok());
  EXPECT_EQ(*table->Count(), 2000u);
  EXPECT_TRUE(table->Get(nullptr, {0}).status().IsNotFound());
  EXPECT_TRUE(table->Get(nullptr, {707}).ok());
}

TEST_F(RollbackTest, WriteConflictBlocksUntilCommit) {
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* t1 = db_->Begin();
  ASSERT_TRUE(table->Insert(t1, {1, std::string("first")}).ok());
  std::atomic<bool> second_done{false};
  std::thread t([&] {
    Transaction* t2 = db_->Begin();
    // Blocks until t1 commits, then fails with AlreadyExists.
    Status s = table->Insert(t2, {1, std::string("second")});
    EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
    EXPECT_TRUE(db_->Abort(t2).ok());
    second_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(second_done.load());
  ASSERT_TRUE(db_->Commit(t1).ok());
  t.join();
  EXPECT_TRUE(second_done.load());
}

TEST_F(RollbackTest, DirtyReadBlockedByRowLock) {
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* writer = db_->Begin();
  ASSERT_TRUE(table->Insert(writer, {1, std::string("uncommitted")}).ok());
  // A locking reader cannot observe the uncommitted row.
  std::thread t([&] {
    Transaction* reader = db_->Begin();
    auto r = table->Get(reader, {1});
    // By the time the lock is granted the writer has committed.
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)[1].AsString(), "uncommitted");
    EXPECT_TRUE(db_->Commit(reader).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(db_->Commit(writer).ok());
  t.join();
}

}  // namespace
}  // namespace rewinddb
