//! SEATS: the Stonebraker Electronic Airline Ticketing System benchmark
//! ("On-line Airline Ticketing", Table 1, Transactional).

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::helpers::{create_schema, p_f, p_i, p_s, run_txn, statements};

const BASE_FLIGHTS: i64 = 100;
const BASE_CUSTOMERS: i64 = 500;
const AIRPORTS: i64 = 20;
const SEATS_PER_FLIGHT: i64 = 150;

pub struct Seats {
    flights: AtomicI64,
    customers: AtomicI64,
    next_reservation: AtomicI64,
}

impl Default for Seats {
    fn default() -> Self {
        Seats::new()
    }
}

impl Seats {
    pub fn new() -> Seats {
        Seats {
            flights: AtomicI64::new(BASE_FLIGHTS),
            customers: AtomicI64::new(BASE_CUSTOMERS),
            next_reservation: AtomicI64::new(1_000_000),
        }
    }

    fn flight(&self, rng: &mut Rng) -> i64 {
        rng.int_range(0, self.flights.load(Ordering::Relaxed).max(1) - 1)
    }

    fn customer(&self, rng: &mut Rng) -> i64 {
        rng.int_range(0, self.customers.load(Ordering::Relaxed).max(1) - 1)
    }
}

statements! {
    // Schema, in creation order.
    CREATE_AIRPORT = "CREATE TABLE airport (ap_id INT PRIMARY KEY, ap_code VARCHAR(3) NOT NULL, \
        ap_city VARCHAR(32))";
    CREATE_CUSTOMER = "CREATE TABLE seats_customer (c_id INT PRIMARY KEY, c_base_ap_id INT, \
        c_balance FLOAT, c_name VARCHAR(64))";
    CREATE_FLIGHT = "CREATE TABLE flight (f_id INT PRIMARY KEY, f_depart_ap_id INT NOT NULL, \
        f_arrive_ap_id INT NOT NULL, f_depart_time INT NOT NULL, f_base_price FLOAT, \
        f_seats_left INT NOT NULL)";
    CREATE_FLIGHT_ROUTE_IDX =
        "CREATE INDEX idx_flight_route ON flight (f_depart_ap_id, f_arrive_ap_id)";
    CREATE_RESERVATION = "CREATE TABLE reservation (r_id INT PRIMARY KEY, r_c_id INT NOT NULL, \
        r_f_id INT NOT NULL, r_seat INT NOT NULL, r_price FLOAT)";
    CREATE_RESERVATION_FLIGHT_IDX = "CREATE INDEX idx_res_flight ON reservation (r_f_id, r_seat)";
    CREATE_RESERVATION_CUSTOMER_IDX = "CREATE INDEX idx_res_customer ON reservation (r_c_id)";
    // First sent by the loader.
    LOAD_AIRPORT = "INSERT INTO airport VALUES (?, ?, ?)";
    LOAD_CUSTOMER = "INSERT INTO seats_customer VALUES (?, ?, ?, ?)";
    LOAD_FLIGHT = "INSERT INTO flight VALUES (?, ?, ?, ?, ?, ?)";
    INSERT_RESERVATION = "INSERT INTO reservation VALUES (?, ?, ?, ?, ?)";
    TAKE_SEAT = "UPDATE flight SET f_seats_left = f_seats_left - 1 WHERE f_id = ?";
    // First sent by a transaction.
    FIND_FLIGHTS = "SELECT f_id, f_depart_time, f_base_price FROM flight WHERE f_depart_ap_id = ? \
        AND f_arrive_ap_id = ? ORDER BY f_depart_time LIMIT 10";
    FIND_OPEN_SEATS = "SELECT f_seats_left FROM flight WHERE f_id = ?";
    GET_RESERVATIONS_BY_FLIGHT = "SELECT r_seat FROM reservation WHERE r_f_id = ?";
    LOCK_OPEN_SEATS = "SELECT f_seats_left FROM flight WHERE f_id = ? FOR UPDATE";
    CHECK_SEAT = "SELECT r_id FROM reservation WHERE r_f_id = ? AND r_seat = ?";
    UPDATE_CUSTOMER_BALANCE = "UPDATE seats_customer SET c_balance = c_balance + ? WHERE c_id = ?";
    GET_CUSTOMER_RESERVATION = "SELECT r_id, r_f_id FROM reservation WHERE r_c_id = ? LIMIT 1";
    UPDATE_RESERVATION_SEAT = "UPDATE reservation SET r_seat = ? WHERE r_id = ?";
    DELETE_RESERVATION = "DELETE FROM reservation WHERE r_id = ?";
    RELEASE_SEAT = "UPDATE flight SET f_seats_left = f_seats_left + 1 WHERE f_id = ?";
}

impl Workload for Seats {
    fn name(&self) -> &'static str {
        "seats"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::Transactional
    }

    fn domain(&self) -> &'static str {
        "On-line Airline Ticketing"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![
            TransactionType::new("FindFlights", 10.0, true),
            TransactionType::new("FindOpenSeats", 35.0, true),
            TransactionType::new("NewReservation", 20.0, false),
            TransactionType::new("UpdateCustomer", 10.0, false),
            TransactionType::new("UpdateReservation", 15.0, false),
            TransactionType::new("DeleteReservation", 10.0, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let mut rows = 0u64;
        for a in 0..AIRPORTS {
            conn.execute(
                LOAD_AIRPORT,
                &[p_i(a), p_s(rng.astring(3, 3).to_uppercase()), p_s(rng.astring(6, 16))],
            )?;
            rows += 1;
        }
        let customers = ((BASE_CUSTOMERS as f64 * scale) as i64).max(20);
        for c in 0..customers {
            conn.execute(
                LOAD_CUSTOMER,
                &[
                    p_i(c),
                    p_i(rng.int_range(0, AIRPORTS - 1)),
                    p_f(rng.f64_range(0.0, 1_000.0)),
                    p_s(bp_util::text::full_name(rng)),
                ],
            )?;
            rows += 1;
        }
        let flights = ((BASE_FLIGHTS as f64 * scale) as i64).max(10);
        for f in 0..flights {
            let depart = rng.int_range(0, AIRPORTS - 1);
            let arrive = loop {
                let a = rng.int_range(0, AIRPORTS - 1);
                if a != depart {
                    break a;
                }
            };
            conn.execute(
                LOAD_FLIGHT,
                &[
                    p_i(f),
                    p_i(depart),
                    p_i(arrive),
                    p_i(rng.int_range(0, 30 * 24)),
                    p_f(rng.f64_range(50.0, 800.0)),
                    p_i(SEATS_PER_FLIGHT),
                ],
            )?;
            rows += 1;
        }
        // Pre-book some reservations.
        let mut r_id = 0;
        for f in 0..flights {
            for seat in 0..rng.int_range(5, 30) {
                conn.execute(
                    INSERT_RESERVATION,
                    &[
                        p_i(r_id),
                        p_i(rng.int_range(0, customers - 1)),
                        p_i(f),
                        p_i(seat),
                        p_f(rng.f64_range(50.0, 800.0)),
                    ],
                )?;
                conn.execute(TAKE_SEAT, &[p_i(f)])?;
                r_id += 1;
                rows += 1;
            }
        }
        self.flights.store(flights, Ordering::Relaxed);
        self.customers.store(customers, Ordering::Relaxed);
        Ok(LoadSummary { tables: 4, rows })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        match txn_idx {
            // FindFlights: route search.
            0 => {
                let depart = p_i(rng.int_range(0, AIRPORTS - 1));
                let arrive = p_i(rng.int_range(0, AIRPORTS - 1));
                run_txn(conn, |c| {
                    c.query(FIND_FLIGHTS, &[depart, arrive])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // FindOpenSeats: seats left + booked seat map.
            1 => {
                let f = self.flight(rng);
                run_txn(conn, |c| {
                    c.query(FIND_OPEN_SEATS, &[p_i(f)])?;
                    c.query(GET_RESERVATIONS_BY_FLIGHT, &[p_i(f)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // NewReservation.
            2 => {
                let f = self.flight(rng);
                let cust = self.customer(rng);
                let r_id = self.next_reservation.fetch_add(1, Ordering::Relaxed);
                let seat = rng.int_range(0, SEATS_PER_FLIGHT - 1);
                let price = rng.f64_range(50.0, 800.0);
                run_txn(conn, |c| {
                    let left = c
                        .query(LOCK_OPEN_SEATS, &[p_i(f)])?
                        .get_int(0, "f_seats_left")
                        .unwrap_or(0);
                    if left <= 0 {
                        return Ok(TxnOutcome::UserAborted);
                    }
                    let taken = c.query(CHECK_SEAT, &[p_i(f), p_i(seat)])?;
                    if !taken.is_empty() {
                        return Ok(TxnOutcome::UserAborted);
                    }
                    c.execute(
                        INSERT_RESERVATION,
                        &[p_i(r_id), p_i(cust), p_i(f), p_i(seat), p_f(price)],
                    )?;
                    c.execute(TAKE_SEAT, &[p_i(f)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // UpdateCustomer.
            3 => {
                let cust = self.customer(rng);
                let delta = rng.f64_range(-50.0, 50.0);
                run_txn(conn, |c| {
                    c.execute(UPDATE_CUSTOMER_BALANCE, &[p_f(delta), p_i(cust)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // UpdateReservation: change seat.
            4 => {
                let cust = self.customer(rng);
                let new_seat = rng.int_range(0, SEATS_PER_FLIGHT - 1);
                run_txn(conn, |c| {
                    let rs = c.query(GET_CUSTOMER_RESERVATION, &[p_i(cust)])?;
                    let Some(r_id) = rs.get_int(0, "r_id") else {
                        return Ok(TxnOutcome::UserAborted);
                    };
                    let f_id = rs.get_int(0, "r_f_id").unwrap();
                    let taken = c.query(CHECK_SEAT, &[p_i(f_id), p_i(new_seat)])?;
                    if !taken.is_empty() {
                        return Ok(TxnOutcome::UserAborted);
                    }
                    c.execute(UPDATE_RESERVATION_SEAT, &[p_i(new_seat), p_i(r_id)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // DeleteReservation.
            5 => {
                let cust = self.customer(rng);
                run_txn(conn, |c| {
                    let rs = c.query(GET_CUSTOMER_RESERVATION, &[p_i(cust)])?;
                    let Some(r_id) = rs.get_int(0, "r_id") else {
                        return Ok(TxnOutcome::UserAborted);
                    };
                    let f_id = rs.get_int(0, "r_f_id").unwrap();
                    c.execute(DELETE_RESERVATION, &[p_i(r_id)])?;
                    c.execute(RELEASE_SEAT, &[p_i(f_id)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            other => panic!("seats has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (Seats, Connection) {
        let db = Database::new(Personality::test());
        let w = Seats::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.2, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn reservation_seat_uniqueness_respected() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            w.execute(2, &mut conn, &mut rng).unwrap();
        }
        // No flight may have two reservations for the same seat.
        let dup = conn
            .query(
                "SELECT r_f_id, r_seat, COUNT(*) AS n FROM reservation GROUP BY r_f_id, r_seat ORDER BY n DESC LIMIT 1",
                &[],
            )
            .unwrap();
        assert_eq!(dup.get_int(0, "n"), Some(1));
    }

    #[test]
    fn delete_returns_seat_to_pool() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(4);
        let before = conn
            .query("SELECT SUM(f_seats_left) AS t FROM flight", &[])
            .unwrap()
            .get_int(0, "t")
            .unwrap();
        let mut deleted = 0;
        for _ in 0..50 {
            if w.execute(5, &mut conn, &mut rng).unwrap() == TxnOutcome::Committed {
                deleted += 1;
            }
        }
        let after = conn
            .query("SELECT SUM(f_seats_left) AS t FROM flight", &[])
            .unwrap()
            .get_int(0, "t")
            .unwrap();
        assert_eq!(after - before, deleted);
    }
}
