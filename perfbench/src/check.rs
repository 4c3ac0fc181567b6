//! Output checks: item conservation, duplicate detection and
//! request/response alignment. Every violation is collected as a message;
//! any message makes the run incorrect.

use relaxed2d_server::{Request, Response};

/// splitmix64 finaliser: spreads item values so that planted collisions in
/// the sums below are as unlikely as random ones.
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-insensitive multiset digest: count plus the first two power
/// sums of the mixed values (mod 2^64). Two multisets with equal digests
/// are equal except with negligible probability, so "produced = consumed +
/// resident" on digests catches a lost item, a duplicated item, and a
/// duplicate that happens to cover a loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    s1: u64,
    s2: u64,
}

impl Digest {
    #[inline]
    pub fn add(&mut self, v: u64) {
        let m = mix(v);
        self.count += 1;
        self.s1 = self.s1.wrapping_add(m);
        self.s2 = self.s2.wrapping_add(m.wrapping_mul(m));
    }

    pub fn merge(&mut self, other: &Digest) {
        self.count += other.count;
        self.s1 = self.s1.wrapping_add(other.s1);
        self.s2 = self.s2.wrapping_add(other.s2);
    }
}

/// One structure's (or tenant's) item flow.
#[derive(Debug, Clone, Default)]
pub struct Flow {
    pub produced: Digest,
    pub consumed: Digest,
    pub resident: Digest,
}

impl Flow {
    pub fn merge(&mut self, other: &Flow) {
        self.produced.merge(&other.produced);
        self.consumed.merge(&other.consumed);
        self.resident.merge(&other.resident);
    }

    /// Conservation at drain: produced = consumed + resident, as multisets.
    pub fn check(&self, what: &str, violations: &mut Vec<String>) {
        let mut out = self.consumed;
        out.merge(&self.resident);
        if out != self.produced {
            let kind = match out.count.cmp(&self.produced.count) {
                std::cmp::Ordering::Less => "items lost",
                std::cmp::Ordering::Greater => "items duplicated",
                std::cmp::Ordering::Equal => "items substituted (duplicate covering a loss)",
            };
            violations.push(format!(
                "{what}: {kind}: produced {} but consumed {} + resident {}",
                self.produced.count, self.consumed.count, self.resident.count
            ));
        }
    }
}

/// Checks that `resps` answers `reqs` one-to-one with the response kind each
/// verb allows. Returns how many requests were answered with the wrong kind
/// (or not at all) and records the first mismatch.
pub fn align(reqs: &[Request], resps: &[Response], violations: &mut Vec<String>) -> u64 {
    let mut bad = reqs.len().abs_diff(resps.len()) as u64;
    if bad > 0 {
        violations.push(format!("frame of {} requests got {} responses", reqs.len(), resps.len()));
    }
    for (req, resp) in reqs.iter().zip(resps) {
        let ok = matches!(
            (req, resp),
            (Request::Produce { .. } | Request::Reset { .. }, Response::Done)
                | (Request::Consume { .. }, Response::Item { .. } | Response::Empty)
                | (Request::Acquire { .. }, Response::Decision { .. })
                | (Request::Create { .. }, Response::Created { .. })
                | (Request::Stats { .. }, Response::Stats { .. })
        );
        if !ok {
            if bad == 0 {
                violations.push(format!("{req:?} answered with {resp:?}"));
            }
            bad += 1;
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxed2d_server::Personality;

    fn flow(produced: &[u64], consumed: &[u64], resident: &[u64]) -> Flow {
        let mut f = Flow::default();
        produced.iter().for_each(|&v| f.produced.add(v));
        consumed.iter().for_each(|&v| f.consumed.add(v));
        resident.iter().for_each(|&v| f.resident.add(v));
        f
    }

    fn violations(f: &Flow) -> Vec<String> {
        let mut v = Vec::new();
        f.check("t", &mut v);
        v
    }

    #[test]
    fn conserved_flow_passes_in_any_order() {
        assert!(violations(&flow(&[1, 2, 3, 4], &[3, 1], &[4, 2])).is_empty());
    }

    #[test]
    fn planted_lost_item_is_caught() {
        let v = violations(&flow(&[1, 2, 3, 4], &[3, 1], &[4]));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("lost"), "{v:?}");
    }

    #[test]
    fn planted_duplicate_is_caught() {
        let v = violations(&flow(&[1, 2, 3, 4], &[3, 1, 3], &[4, 2]));
        assert!(v[0].contains("duplicated"), "{v:?}");
        // A duplicate that stands in for a lost item keeps the count equal.
        let v = violations(&flow(&[1, 2, 3, 4], &[3, 1, 3], &[4]));
        assert!(v[0].contains("substituted"), "{v:?}");
    }

    #[test]
    fn misaligned_responses_are_counted() {
        let q = Personality::TaskQueue;
        let reqs = [
            Request::Produce { personality: q, tenant: "t".into(), value: 1 },
            Request::Consume { personality: q, tenant: "t".into() },
            Request::Acquire { tenant: "r".into(), cost: 4 },
        ];
        let good = [
            Response::Done,
            Response::Empty,
            Response::Decision { allowed: true, observed: 4, limit: 9 },
        ];
        let mut v = Vec::new();
        assert_eq!(align(&reqs, &good, &mut v), 0);
        assert!(v.is_empty());
        assert_eq!(align(&reqs, &good[..2], &mut v), 1);
        let swapped = [Response::Item { value: 1 }, Response::Done, good[2].clone()];
        assert_eq!(align(&reqs, &swapped, &mut v), 2);
        assert_eq!(v.len(), 2);
    }
}
