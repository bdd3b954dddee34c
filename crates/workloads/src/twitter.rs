//! Twitter: the micro-blogging workload (Table 1, Web-Oriented), modeled on
//! an anonymized production trace's operation mix: almost all traffic reads
//! tweets and timelines, with a trickle of new tweets.

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::{Rng, Zipf};

use crate::helpers::{create_schema, p_i, p_s, run_txn, statements};

const BASE_USERS: i64 = 300;
const TWEETS_PER_USER: i64 = 10;
const FOLLOWS_PER_USER: i64 = 8;

pub struct Twitter {
    users: AtomicI64,
    next_tweet: AtomicI64,
    user_zipf: Zipf,
}

impl Default for Twitter {
    fn default() -> Self {
        Twitter::new()
    }
}

impl Twitter {
    pub fn new() -> Twitter {
        Twitter {
            users: AtomicI64::new(BASE_USERS),
            next_tweet: AtomicI64::new(BASE_USERS * TWEETS_PER_USER),
            user_zipf: Zipf::new(BASE_USERS as u64, 0.8),
        }
    }

    /// Zipfian user choice: celebrity accounts get most traffic.
    fn user(&self, rng: &mut Rng) -> i64 {
        let n = self.users.load(Ordering::Relaxed).max(1) as u64;
        (self.user_zipf.sample(rng) % n) as i64
    }
}

statements! {
    // Schema, in creation order.
    CREATE_USER_PROFILES =
        "CREATE TABLE user_profiles (uid INT PRIMARY KEY, name VARCHAR(32), followers INT)";
    CREATE_FOLLOWERS =
        "CREATE TABLE followers (f1 INT NOT NULL, f2 INT NOT NULL, PRIMARY KEY (f1, f2))";
    CREATE_FOLLOWS =
        "CREATE TABLE follows (f1 INT NOT NULL, f2 INT NOT NULL, PRIMARY KEY (f1, f2))";
    CREATE_TWEETS = "CREATE TABLE tweets (id INT PRIMARY KEY, uid INT NOT NULL, \
        text VARCHAR(140) NOT NULL, createdate INT)";
    CREATE_TWEETS_USER_IDX = "CREATE INDEX idx_tweets_uid ON tweets (uid)";
    // First sent by the loader.
    LOAD_USER = "INSERT INTO user_profiles VALUES (?, ?, ?)";
    LOAD_FOLLOWS = "INSERT INTO follows VALUES (?, ?)";
    LOAD_FOLLOWERS = "INSERT INTO followers VALUES (?, ?)";
    INSERT_TWEET = "INSERT INTO tweets VALUES (?, ?, ?, ?)";
    // First sent by a transaction.
    GET_TWEET = "SELECT * FROM tweets WHERE id = ?";
    GET_FOLLOWING = "SELECT f2 FROM follows WHERE f1 = ? LIMIT 20";
    GET_FOLLOWING_TWEETS = "SELECT * FROM tweets WHERE uid = ? ORDER BY createdate DESC LIMIT 5";
    GET_FOLLOWERS = "SELECT f2 FROM followers WHERE f1 = ? LIMIT 20";
    GET_USER_NAME = "SELECT name FROM user_profiles WHERE uid = ?";
    GET_USER_TWEETS = "SELECT * FROM tweets WHERE uid = ? ORDER BY createdate DESC LIMIT 10";
}

impl Workload for Twitter {
    fn name(&self) -> &'static str {
        "twitter"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::WebOriented
    }

    fn domain(&self) -> &'static str {
        "Social Networking"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        // Production-trace mix used by OLTP-Bench (rounded).
        vec![
            TransactionType::new("GetTweet", 1.0, true),
            TransactionType::new("GetTweetsFromFollowing", 1.0, true),
            TransactionType::new("GetFollowers", 7.6, true),
            TransactionType::new("GetUserTweets", 89.9, true),
            TransactionType::new("InsertTweet", 0.5, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let users = ((BASE_USERS as f64 * scale) as i64).max(10);
        let mut rows = 0u64;
        for u in 0..users {
            conn.execute(LOAD_USER, &[p_i(u), p_s(bp_util::text::full_name(rng)), p_i(0)])?;
            rows += 1;
        }
        // Follower graph (both directions materialized, like the original).
        for u in 0..users {
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.int_range(1, FOLLOWS_PER_USER) {
                let v = rng.int_range(0, users - 1);
                if v != u && seen.insert(v) {
                    conn.execute(LOAD_FOLLOWS, &[p_i(u), p_i(v)])?;
                    conn.execute(LOAD_FOLLOWERS, &[p_i(v), p_i(u)])?;
                    rows += 2;
                }
            }
        }
        let mut id = 0;
        for u in 0..users {
            for _ in 0..TWEETS_PER_USER {
                conn.execute(
                    INSERT_TWEET,
                    &[p_i(id), p_i(u), p_s(bp_util::text::text(rng, 100)), p_i(id)],
                )?;
                id += 1;
                rows += 1;
            }
        }
        self.users.store(users, Ordering::Relaxed);
        self.next_tweet.store(id, Ordering::Relaxed);
        Ok(LoadSummary { tables: 4, rows })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let u = self.user(rng);
        match txn_idx {
            0 => {
                let max = self.next_tweet.load(Ordering::Relaxed).max(1);
                let id = rng.int_range(0, max - 1);
                run_txn(conn, |c| {
                    c.query(GET_TWEET, &[p_i(id)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            1 => run_txn(conn, |c| {
                let following = c.query(GET_FOLLOWING, &[p_i(u)])?;
                for r in 0..following.len().min(5) {
                    let f = following.get_int(r, "f2").unwrap();
                    c.query(GET_FOLLOWING_TWEETS, &[p_i(f)])?;
                }
                Ok(TxnOutcome::Committed)
            }),
            2 => run_txn(conn, |c| {
                let followers = c.query(GET_FOLLOWERS, &[p_i(u)])?;
                for r in 0..followers.len().min(20) {
                    let f = followers.get_int(r, "f2").unwrap();
                    c.query(GET_USER_NAME, &[p_i(f)])?;
                }
                Ok(TxnOutcome::Committed)
            }),
            3 => run_txn(conn, |c| {
                c.query(GET_USER_TWEETS, &[p_i(u)])?;
                Ok(TxnOutcome::Committed)
            }),
            4 => {
                let id = self.next_tweet.fetch_add(1, Ordering::Relaxed);
                let text = bp_util::text::text(rng, 120);
                run_txn(conn, |c| {
                    c.execute(INSERT_TWEET, &[p_i(id), p_i(u), p_s(text.clone()), p_i(id)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            other => panic!("twitter has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (Twitter, Connection) {
        let db = Database::new(Personality::test());
        let w = Twitter::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.2, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn insert_tweet_monotonic_ids() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        let before = conn.query("SELECT COUNT(*) AS n FROM tweets", &[]).unwrap().get_int(0, "n").unwrap();
        for _ in 0..20 {
            w.execute(4, &mut conn, &mut rng).unwrap();
        }
        let after = conn.query("SELECT COUNT(*) AS n FROM tweets", &[]).unwrap().get_int(0, "n").unwrap();
        assert_eq!(after - before, 20);
    }

    #[test]
    fn follower_graph_is_symmetric() {
        let (_, mut conn) = setup();
        let follows = conn.query("SELECT COUNT(*) AS n FROM follows", &[]).unwrap().get_int(0, "n").unwrap();
        let followers = conn.query("SELECT COUNT(*) AS n FROM followers", &[]).unwrap().get_int(0, "n").unwrap();
        assert_eq!(follows, followers);
        assert!(follows > 0);
    }

    #[test]
    fn read_mostly_mix() {
        let w = Twitter::new();
        let types = w.transaction_types();
        let write_weight: f64 = types.iter().filter(|t| !t.read_only).map(|t| t.default_weight).sum();
        let total: f64 = types.iter().map(|t| t.default_weight).sum();
        assert!(write_weight / total < 0.01);
    }
}
