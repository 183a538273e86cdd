//! Single-flight coalescing: at most one in-progress solve per cache
//! key.
//!
//! When K requests for the same key arrive while none of them is in the
//! cache yet, exactly one — the *leader* — runs the solver; the other
//! K−1 — *followers* — block on the flight and receive the leader's
//! byte-exact response, shared rather than copied. The table maps keys
//! to flights; a flight is a one-shot slot (`Mutex<Option<...>>` +
//! `Condvar`) the leader publishes into exactly once.
//!
//! Leadership is decided under the table lock, so there is never more
//! than one leader per key. The leader's [`Leader`] guard publishes on
//! drop even when the solve panics: followers then observe a poisoned
//! outcome and fail their own requests instead of blocking forever.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// What a flight resolves to, shared verbatim with every follower.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightOutcome {
    /// The leader finished and published the response bytes.
    Response(Arc<str>),
    /// The leader was torn down without publishing (its solve
    /// panicked); followers must not wait for a response that will
    /// never come.
    Abandoned,
}

#[derive(Debug, Default)]
struct Flight {
    slot: Mutex<Option<FlightOutcome>>,
    ready: Condvar,
}

impl Flight {
    fn publish(&self, outcome: FlightOutcome) {
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        if slot.is_none() {
            *slot = Some(outcome);
        }
        self.ready.notify_all();
    }

    fn wait(&self) -> FlightOutcome {
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.ready.wait(slot).expect("flight slot poisoned");
        }
    }
}

/// The result of asking the table who solves a key.
#[derive(Debug)]
pub enum FlightTicket {
    /// This caller must solve and then [`Leader::publish`].
    Lead(Leader),
    /// Another caller is already solving; the contained outcome is its
    /// (possibly abandoned) result, waited for synchronously.
    Followed(FlightOutcome),
}

/// Tracks in-progress solves by cache key.
#[derive(Debug, Default)]
pub struct FlightTable {
    flights: Mutex<HashMap<String, Arc<Flight>>>,
}

impl FlightTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        FlightTable::default()
    }

    /// Joins the flight for `key`, creating it if absent. The first
    /// caller per key becomes the leader; everyone else blocks until
    /// the leader publishes and gets the outcome.
    #[must_use]
    pub fn join(self: &Arc<Self>, key: &str) -> FlightTicket {
        let flight = {
            let mut flights = self.flights.lock().expect("flight table poisoned");
            if let Some(flight) = flights.get(key) {
                Arc::clone(flight)
            } else {
                let flight = Arc::new(Flight::default());
                flights.insert(key.to_owned(), Arc::clone(&flight));
                return FlightTicket::Lead(Leader {
                    table: Arc::clone(self),
                    key: key.to_owned(),
                    flight,
                    published: false,
                });
            }
        };
        FlightTicket::Followed(flight.wait())
    }

    fn retire(&self, key: &str) {
        self.flights
            .lock()
            .expect("flight table poisoned")
            .remove(key);
    }

    /// Keys with a solve currently in progress. Quiescent servers must
    /// report 0 — a nonzero count after every request has completed is
    /// a wedged key, the condition the chaos suite asserts against.
    #[must_use]
    pub fn in_flight_keys(&self) -> usize {
        self.flights.lock().expect("flight table poisoned").len()
    }
}

/// The leader's obligation: publish a response (or be dropped, which
/// publishes [`FlightOutcome::Abandoned`]) and retire the flight so
/// later requests consult the cache instead of a finished flight.
#[derive(Debug)]
pub struct Leader {
    table: Arc<FlightTable>,
    key: String,
    flight: Arc<Flight>,
    published: bool,
}

impl Leader {
    /// Publishes the solved response to every follower and retires the
    /// flight. The caller must insert the response into the cache
    /// *before* calling this, so a request arriving after retirement
    /// finds it there rather than starting a redundant solve.
    pub fn publish(mut self, response: Arc<str>) {
        self.published = true;
        self.table.retire(&self.key);
        self.flight.publish(FlightOutcome::Response(response));
    }

    /// Explicitly abandons the flight: followers observe
    /// [`FlightOutcome::Abandoned`] and requeue (or fail) instead of
    /// receiving a response. Equivalent to dropping the leader, but it
    /// reads as a decision rather than an accident at the call site —
    /// the service uses it when a solve dies on an injected or real
    /// panic and the faulted status must not be shared with followers.
    pub fn abandon(self) {
        // Drop does the work: retire + publish(Abandoned).
    }
}

impl Drop for Leader {
    fn drop(&mut self) {
        if !self.published {
            // The solve panicked (or the leader was otherwise torn
            // down). Unblock followers with an explicit abandonment.
            self.table.retire(&self.key);
            self.flight.publish(FlightOutcome::Abandoned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    #[test]
    fn first_joiner_leads_followers_get_the_response() {
        let table = Arc::new(FlightTable::new());
        let leader = match table.join("k") {
            FlightTicket::Lead(leader) => leader,
            FlightTicket::Followed(_) => panic!("first joiner must lead"),
        };
        let follower = {
            let table = Arc::clone(&table);
            thread::spawn(move || match table.join("k") {
                FlightTicket::Followed(outcome) => outcome,
                FlightTicket::Lead(_) => panic!("second joiner must follow"),
            })
        };
        // Publish only after the follower has cloned the flight inside
        // `join` (it does so under the table lock, before blocking) —
        // otherwise it could arrive after retirement and lead a fresh
        // flight instead.
        while Arc::strong_count(&leader.flight) < 3 {
            thread::yield_now();
        }
        leader.publish("answer".into());
        assert_eq!(
            follower.join().unwrap(),
            FlightOutcome::Response("answer".into())
        );
        // The flight is retired: a fresh joiner leads again.
        assert!(matches!(table.join("k"), FlightTicket::Lead(_)));
    }

    #[test]
    fn burst_produces_exactly_one_leader() {
        let table = Arc::new(FlightTable::new());
        let leads = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let table = Arc::clone(&table);
                let leads = Arc::clone(&leads);
                thread::spawn(move || match table.join("burst") {
                    FlightTicket::Lead(leader) => {
                        leads.fetch_add(1, Ordering::Relaxed);
                        leader.publish("r".into());
                        "r".into()
                    }
                    FlightTicket::Followed(FlightOutcome::Response(r)) => r,
                    FlightTicket::Followed(FlightOutcome::Abandoned) => {
                        panic!("no leader panicked")
                    }
                })
            })
            .collect();
        // Every thread that joined before the leader published followed
        // it; threads arriving after retirement lead their own (also
        // published) flight. Either way all responses agree.
        for handle in handles {
            assert_eq!(&*handle.join().unwrap(), "r");
        }
        assert!(leads.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn dropped_leader_abandons_rather_than_hanging_followers() {
        let table = Arc::new(FlightTable::new());
        let leader = match table.join("k") {
            FlightTicket::Lead(leader) => leader,
            FlightTicket::Followed(_) => panic!("first joiner must lead"),
        };
        let follower = {
            let table = Arc::clone(&table);
            thread::spawn(move || match table.join("k") {
                FlightTicket::Followed(outcome) => outcome,
                FlightTicket::Lead(_) => panic!("second joiner must follow"),
            })
        };
        // Same join-before-publish synchronization as above.
        while Arc::strong_count(&leader.flight) < 3 {
            thread::yield_now();
        }
        drop(leader); // simulates a panicking solve
        assert_eq!(follower.join().unwrap(), FlightOutcome::Abandoned);
        assert!(matches!(table.join("k"), FlightTicket::Lead(_)));
    }

    #[test]
    fn explicit_abandon_retires_the_key() {
        let table = Arc::new(FlightTable::new());
        assert_eq!(table.in_flight_keys(), 0);
        let leader = match table.join("k") {
            FlightTicket::Lead(leader) => leader,
            FlightTicket::Followed(_) => panic!("first joiner must lead"),
        };
        assert_eq!(table.in_flight_keys(), 1);
        leader.abandon();
        assert_eq!(table.in_flight_keys(), 0, "abandon must not wedge the key");
        // The next joiner leads a fresh flight.
        match table.join("k") {
            FlightTicket::Lead(leader) => leader.publish("r".into()),
            FlightTicket::Followed(_) => panic!("abandoned flight must not be joinable"),
        }
        assert_eq!(table.in_flight_keys(), 0);
    }
}
