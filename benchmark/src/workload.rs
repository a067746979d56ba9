//! The four workloads: their documents, request generators and reasons.
//!
//! A seed picks orderings and literals; the results those literals can
//! produce are a fixed, finite set (the golden keys), so every response
//! of every seed is checked against a checked-in digest.

/// SplitMix64: the benchmark's own generator, so request lists depend on
/// nothing but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One query to submit and the golden row its result must match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub key: String,
    pub text: String,
    /// Index into [`Workload::queries`]: the shape this request is a
    /// sample of, whatever literal it carries.
    pub query: u16,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    XmarkInproc,
    ClioNested,
    ServeHot,
    PrepareCold,
}

/// The sub-millisecond XMark shapes `serve-hot` repeats (Q13 is the
/// result-heavy one).
const HOT_SHAPES: [usize; 8] = [1, 5, 6, 7, 13, 15, 16, 17];

/// `clio-nested` submits N2 twice for each N3. An even split would put
/// the median request on the boundary between a 16 ms and a 150 ms
/// population, where one sample flips it; at two to one the median is an
/// N2 and the 95th percentile an N3.
const CLIO_PASS: [usize; 3] = [2, 2, 3];

/// The smallest value a salt takes: far above any result's item count,
/// so `subsequence(result, 1, salt)` returns the whole result.
const SALT_FLOOR: u64 = 1_000_000;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::XmarkInproc,
        Workload::ClioNested,
        Workload::ServeHot,
        Workload::PrepareCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::XmarkInproc => "xmark-inproc",
            Workload::ClioNested => "clio-nested",
            Workload::ServeHot => "serve-hot",
            Workload::PrepareCold => "prepare-cold",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn golden_text(self) -> &'static str {
        match self {
            Workload::XmarkInproc => include_str!("../golden/xmark-inproc.tsv"),
            Workload::ClioNested => include_str!("../golden/clio-nested.tsv"),
            Workload::ServeHot => include_str!("../golden/serve-hot.tsv"),
            Workload::PrepareCold => include_str!("../golden/prepare-cold.tsv"),
        }
    }

    /// The document the workload queries, as `(uri, xml)`. Generating it
    /// is the benchmark's own cost and is never timed.
    pub fn document(self) -> (&'static str, String) {
        let xmark = |bytes| xqr_xmark::generate(&xqr_xmark::GenOptions::for_bytes(bytes));
        match self {
            Workload::XmarkInproc | Workload::ServeHot => ("auction.xml", xmark(1_000_000)),
            Workload::PrepareCold => ("auction.xml", xmark(20_000)),
            Workload::ClioNested => (
                "dblp.xml",
                xqr_clio::generate_dblp(&xqr_clio::DblpOptions::for_bytes(30_000)),
            ),
        }
    }

    /// Whether requests go through `Engine::prepare_cached` (the plan
    /// cache) or plain `Engine::prepare`.
    pub fn uses_plan_cache(self) -> bool {
        matches!(self, Workload::ServeHot | Workload::PrepareCold)
    }

    /// Every golden key the workload can produce, in a fixed order.
    pub fn keys(self) -> Vec<String> {
        match self {
            Workload::XmarkInproc => (1..=xqr_xmark::QUERY_COUNT)
                .map(|n| format!("Q{n}"))
                .collect(),
            Workload::ClioNested => vec!["N2".into(), "N3".into()],
            Workload::ServeHot => HOT_SHAPES.iter().map(|n| format!("Q{n}")).collect(),
            Workload::PrepareCold => TEMPLATES
                .iter()
                .flat_map(|t| (0..t.pool.len()).map(|a| t.key(a)))
                .collect(),
        }
    }

    /// The query shapes, in the order the reports list them: a golden
    /// key up to its `/literal`.
    pub fn queries(self) -> Vec<String> {
        match self {
            Workload::PrepareCold => TEMPLATES.iter().map(|t| t.name.to_string()).collect(),
            _ => self.keys(),
        }
    }

    /// One request per golden key (salt at its floor), for `--bless`.
    pub fn reference_requests(self) -> Vec<Request> {
        match self {
            Workload::PrepareCold => (0..TEMPLATES.len())
                .flat_map(|t| {
                    (0..TEMPLATES[t].pool.len()).map(move |a| template_request(t, a, SALT_FLOOR))
                })
                .collect(),
            _ => self.fixed_requests(),
        }
    }

    /// A fixed workload's keys as requests, in key order.
    fn fixed_requests(self) -> Vec<Request> {
        let requests = self.keys().into_iter().enumerate();
        requests
            .map(|(i, key)| self.fixed_request(i, key))
            .collect()
    }

    /// `key`, the `i`th of a fixed workload's keys, as a request.
    fn fixed_request(self, i: usize, key: String) -> Request {
        let n: usize = key[1..].parse().expect("keys are a letter and a number");
        let text = match self {
            Workload::ClioNested => xqr_clio::mapping_query(n),
            _ => xqr_xmark::query(n).to_string(),
        };
        Request {
            key,
            text,
            query: i as u16,
        }
    }
}

/// Produces a workload's requests pass by pass. A pass holds the
/// workload's whole mix once, in seed-drawn order, so any whole number
/// of passes has the same composition whatever the seed.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    salt: u64,
}

impl Generator {
    /// `client` separates the streams of concurrent clients of one seed.
    pub fn new(workload: Workload, seed: u64, client: u64) -> Generator {
        let mut rng = Rng::new(seed ^ client.wrapping_mul(0xa076_1d64_78bd_642f));
        // Each client draws salts from its own range of 2^32 values.
        let salt = SALT_FLOOR + ((rng.next_u64() % (1 << 20)) << 32);
        Generator {
            workload,
            rng,
            salt,
        }
    }

    pub fn next_pass(&mut self) -> Vec<Request> {
        let w = self.workload;
        let mut pass: Vec<Request> = match w {
            Workload::XmarkInproc | Workload::ServeHot => w.fixed_requests(),
            Workload::ClioNested => CLIO_PASS
                .iter()
                .map(|n| w.fixed_request(n - 2, format!("N{n}")))
                .collect(),
            Workload::PrepareCold => (0..TEMPLATES.len())
                .map(|t| {
                    self.salt += 1;
                    template_request(t, self.rng.below(TEMPLATES[t].pool.len()), self.salt)
                })
                .collect(),
        };
        self.rng.shuffle(&mut pass);
        pass
    }
}

/// A `prepare-cold` query shape. `{A}` takes a literal from `pool`,
/// which decides the result (one golden row per pool entry); the body is
/// wrapped in `subsequence((…), 1, salt)` — a page limit no result
/// reaches — so every request has a text and a plan never seen before
/// while its result stays one of the golden rows.
pub struct Template {
    pub name: &'static str,
    prolog: &'static str,
    body: &'static str,
    pool: &'static [&'static str],
}

impl Template {
    fn key(&self, a: usize) -> String {
        format!("{}/{}", self.name, self.pool[a])
    }
}

/// Template `t` with pool entry `a` and this salt.
fn template_request(t: usize, a: usize, salt: u64) -> Request {
    let template = &TEMPLATES[t];
    let body = template.body.replace("{A}", template.pool[a]);
    Request {
        key: template.key(a),
        text: format!(
            "{}let $auction := doc('auction.xml') return subsequence(({body}), 1, {salt})",
            template.prolog
        ),
        query: t as u16,
    }
}

const fn t(name: &'static str, body: &'static str, pool: &'static [&'static str]) -> Template {
    Template {
        name,
        prolog: "",
        body,
        pool,
    }
}

const NONE: &[&str] = &["-"];

/// The twenty XMark shapes with their literals opened up, then twenty
/// shapes in the style of the W3C use cases (`tests/use_cases*.rs`):
/// quantifiers, typeswitch, computed constructors, grouping, ordering,
/// positional variables, user functions, node comparisons, set
/// operators, casts and string functions.
pub const TEMPLATES: &[Template] = &[
    t(
        "x01",
        "for $b in $auction/site/people/person[@id = 'person{A}'] return $b/name/text()",
        &["0", "1", "2", "3", "5", "8", "11", "12"],
    ),
    t(
        "x02",
        "for $b in $auction/site/open_auctions/open_auction \
         return <increase>{ $b/bidder[{A}]/increase/text() }</increase>",
        &["1", "2", "3"],
    ),
    t(
        "x03",
        "for $b in $auction/site/open_auctions/open_auction \
         where zero-or-one($b/bidder[1]/increase/text()) * {A} <= $b/bidder[last()]/increase/text() \
         return <increase first=\"{$b/bidder[1]/increase/text()}\" \
                last=\"{$b/bidder[last()]/increase/text()}\"/>",
        &["1", "2", "3"],
    ),
    t(
        "x04",
        "for $b in $auction/site/open_auctions/open_auction \
         where some $pr1 in $b/bidder/personref[@person = 'person{A}'], \
                    $pr2 in $b/bidder/personref satisfies $pr1 << $pr2 \
         return <history>{ $b/reserve/text() }</history>",
        &["0", "2", "4", "7", "9"],
    ),
    t(
        "x05",
        "count(for $i in $auction/site/closed_auctions/closed_auction \
               where $i/price/text() >= {A} return $i/price)",
        &["40", "100", "250", "400"],
    ),
    t("x06", "for $b in $auction/site/regions return count($b//item)", NONE),
    t(
        "x07",
        "for $p in $auction/site \
         return count($p//description) + count($p//annotation) + count($p//emailaddress)",
        NONE,
    ),
    t(
        "x08",
        "for $p in $auction/site/people/person \
         let $a := for $t in $auction/site/closed_auctions/closed_auction \
                   where $t/buyer/@person = $p/@id return $t \
         return <item person=\"{$p/name/text()}\">{ count($a) }</item>",
        NONE,
    ),
    t(
        "x09",
        "let $ca := $auction/site/closed_auctions/closed_auction return \
         let $ei := $auction/site/regions/{A}/item return \
         for $p in $auction/site/people/person \
         let $a := for $t in $ca where $p/@id = $t/buyer/@person \
                   return let $n := for $t2 in $ei where $t/itemref/@item = $t2/@id return $t2 \
                          return <item>{ $n/name/text() }</item> \
         return <person name=\"{$p/name/text()}\">{ $a }</person>",
        &["europe", "samerica", "asia"],
    ),
    t(
        "x10",
        "for $i in distinct-values($auction/site/people/person/profile/interest/@category) \
         let $p := for $t in $auction/site/people/person \
                   where $t/profile/interest/@category = $i \
                   return <personne><statistiques><sexe>{ $t/profile/gender/text() }</sexe>\
                          <age>{ $t/profile/age/text() }</age>\
                          <revenu>{ fn:data($t/profile/@income) }</revenu></statistiques>\
                          <coordonnees><nom>{ $t/name/text() }</nom>\
                          <ville>{ $t/address/city/text() }</ville>\
                          <courrier>{ $t/emailaddress/text() }</courrier></coordonnees>\
                          <cartePaiement>{ $t/creditcard/text() }</cartePaiement></personne> \
         return <categorie>{ <id>{ $i }</id>, $p }</categorie>",
        NONE,
    ),
    t(
        "x11",
        "for $p in $auction/site/people/person \
         let $l := for $i in $auction/site/open_auctions/open_auction/initial \
                   where $p/profile/@income > {A} * exactly-one($i/text()) return $i \
         return <items name=\"{$p/name/text()}\">{ count($l) }</items>",
        &["5000", "2000", "500"],
    ),
    t(
        "x12",
        "for $p in $auction/site/people/person \
         let $l := for $i in $auction/site/open_auctions/open_auction/initial \
                   where $p/profile/@income > 5000 * exactly-one($i/text()) return $i \
         where $p/profile/@income > {A} \
         return <items person=\"{$p/profile/@income}\">{ count($l) }</items>",
        &["50000", "30000", "100000"],
    ),
    t(
        "x13",
        "for $i in $auction/site/regions/{A}/item \
         return <item name=\"{$i/name/text()}\">{ $i/description }</item>",
        &["australia", "samerica", "africa"],
    ),
    t(
        "x14",
        "for $i in $auction/site//item \
         where contains(string(exactly-one($i/description)), '{A}') return $i/name/text()",
        &["gold", "silver", "rare", "amber"],
    ),
    t(
        "x15",
        "for $a in $auction/site/closed_auctions/closed_auction/annotation/\
         description/parlist/listitem/text/text() return <text>{ $a }</text>",
        NONE,
    ),
    t(
        "x16",
        "for $a in $auction/site/open_auctions/open_auction \
         where exists($a/annotation/description/parlist/listitem/text/text()) \
         return <person id=\"{$a/seller/@person}\"/>",
        NONE,
    ),
    t(
        "x17",
        "for $p in $auction/site/people/person where empty($p/homepage/text()) \
         return <person name=\"{$p/name/text()}\"/>",
        NONE,
    ),
    Template {
        name: "x18",
        prolog: "declare function local:convert($v as xs:decimal?) as xs:decimal* { 2.20371 * $v }; ",
        body: "for $i in $auction/site/open_auctions/open_auction \
               return {A} * local:convert(zero-or-one($i/reserve/text()) cast as xs:decimal?)",
        pool: &["1", "2", "10"],
    },
    t(
        "x19",
        "for $b in $auction/site/regions//item let $k := $b/name/text() \
         order by zero-or-one($b/location/text()) ascending \
         return <item name=\"{$k}\">{ $b/location/text() }</item>",
        NONE,
    ),
    t(
        "x20",
        "<result><preferred>{ count($auction/site/people/person/profile[@income >= {A}]) }</preferred>\
         <standard>{ count($auction/site/people/person/profile[@income < {A} and @income >= 30000]) }</standard>\
         <challenge>{ count($auction/site/people/person/profile[@income < 30000]) }</challenge>\
         <na>{ count(for $p in $auction/site/people/person \
                     where empty($p/profile/@income) return $p) }</na></result>",
        &["100000", "120000", "90000"],
    ),
    t(
        "u01",
        "if (some $p in $auction/site/people/person satisfies $p/profile/@income > {A}) \
         then 'some above' else 'none above'",
        &["100000", "140000", "200000"],
    ),
    t(
        "u02",
        "every $a in $auction/site/open_auctions/open_auction satisfies count($a/bidder) >= {A}",
        &["0", "1"],
    ),
    t(
        "u03",
        "for $n in $auction/site/people/person[{A}]/* \
         return typeswitch ($n) \
                case $e as element(name) return <n>{ $e/text() }</n> \
                case $e as element(address) return <city>{ $e/city/text() }</city> \
                default $d return local-name($d)",
        &["1", "2", "3", "4"],
    ),
    t(
        "u04",
        "for $i in $auction/site/regions/*/item[quantity = {A}] \
         return element { concat('item-', local-name($i/..)) } \
                { attribute id { $i/@id }, text { string($i/name) } }",
        &["1", "2", "3"],
    ),
    t(
        "u05",
        "for $c in distinct-values($auction//incategory/@category) \
         return <cat id=\"{$c}\">{ count($auction//item[incategory/@category = $c]) }</cat>",
        NONE,
    ),
    t(
        "u06",
        "for $i in $auction/site/regions//item, $o in $auction/site/open_auctions/open_auction \
         where $o/itemref/@item = $i/@id \
         return <pair item=\"{$i/name/text()}\" current=\"{$o/current/text()}\"/>",
        NONE,
    ),
    t(
        "u07",
        "(for $p in $auction/site/people/person order by string($p/name) descending \
          return $p/name/text())[position() <= {A}]",
        &["3", "5", "8"],
    ),
    t(
        "u08",
        "let $p := for $c in $auction/site/closed_auctions/closed_auction \
                   where $c/price > {A} return xs:decimal($c/price) \
         return (count($p), sum($p), min($p), max($p))",
        &["0", "100", "300"],
    ),
    t(
        "u09",
        "for $p in $auction/site/people/person where starts-with($p/name, '{A}') \
         return concat(upper-case(substring-before($p/name, ' ')), ':', \
                       string-length($p/emailaddress))",
        &["A", "K", "P", "T"],
    ),
    t(
        "u10",
        "for $b at $i in $auction/site/open_auctions/open_auction/bidder \
         where $i mod {A} = 0 return <b n=\"{$i}\">{ $b/increase/text() }</b>",
        &["2", "3", "5"],
    ),
    t(
        "u11",
        "for $c in $auction/site/categories/category \
         let $n := count(for $i in $auction/site/regions//item \
                         where $i/incategory/@category = $c/@id return $i) \
         where $n >= {A} return <c name=\"{$c/name/text()}\">{ $n }</c>",
        &["0", "2", "4"],
    ),
    t(
        "u12",
        "for $o in $auction/site/open_auctions/open_auction \
         return if ($o/reserve) then <reserve>{ $o/reserve/text() }</reserve> \
                else <open id=\"{$o/@id}\"/>",
        NONE,
    ),
    t(
        "u13",
        "let $first := ($auction//item)[{A}] \
         for $i in $auction//item where $i >> $first return string($i/@id)",
        &["1", "4", "8"],
    ),
    t(
        "u14",
        "count($auction//item/name | $auction//person/name | $auction//category/name)",
        NONE,
    ),
    Template {
        name: "u15",
        prolog: "declare function local:depth($n) as xs:integer \
                 { if (empty($n/*)) then 1 \
                   else 1 + max(for $c in $n/* return local:depth($c)) }; ",
        body: "local:depth($auction/site/{A})",
        pool: &["categories", "catgraph", "closed_auctions"],
    },
    t(
        "u16",
        "$auction/site/people/person[profile/@income > {A}][address]/name/text()",
        &["20000", "60000", "100000"],
    ),
    t(
        "u17",
        "for $m in $auction//mail where $m/from = 'person{A}' or $m/to = 'person{A}' \
         return <mail date=\"{$m/date/text()}\"/>",
        &["1", "4", "6", "10"],
    ),
    t(
        "u18",
        "for $c in $auction/site/closed_auctions/closed_auction \
         return xs:decimal($c/price) * {A}",
        &["1.07", "1.19", "0.9"],
    ),
    t(
        "u19",
        "count($auction/site/*/*) + \
         count($auction/site/regions/*/item/description[parlist]/parlist/listitem)",
        NONE,
    ),
    t(
        "u20",
        "let $prices := for $c in $auction/site/closed_auctions/closed_auction \
                        return xs:decimal($c/price) \
         return (index-of($prices, max($prices)), reverse($prices)[position() <= {A}])",
        &["1", "2", "4"],
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn request_list(w: Workload, seed: u64, passes: usize) -> Vec<Request> {
        let mut g = Generator::new(w, seed, 0);
        (0..passes).flat_map(|_| g.next_pass()).collect()
    }

    #[test]
    fn same_seed_same_requests() {
        for w in Workload::ALL {
            assert_eq!(
                request_list(w, 11, 5),
                request_list(w, 11, 5),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn different_seed_different_order_or_text() {
        for w in Workload::ALL {
            assert_ne!(
                request_list(w, 11, 8),
                request_list(w, 12, 8),
                "{}",
                w.name()
            );
        }
        // prepare-cold: no text of one seed appears under another.
        let a: HashSet<String> = request_list(Workload::PrepareCold, 11, 20)
            .into_iter()
            .map(|r| r.text)
            .collect();
        assert!(request_list(Workload::PrepareCold, 12, 20)
            .iter()
            .all(|r| !a.contains(&r.text)));
    }

    #[test]
    fn prepare_cold_never_repeats_a_text() {
        let list = request_list(Workload::PrepareCold, 11, 200);
        let distinct: HashSet<&str> = list.iter().map(|r| r.text.as_str()).collect();
        assert_eq!(distinct.len(), list.len());
        assert_eq!(list.len(), 200 * TEMPLATES.len());
        // Two clients of one seed do not collide either.
        let mut other = Generator::new(Workload::PrepareCold, 11, 1);
        assert!(other
            .next_pass()
            .iter()
            .all(|r| !distinct.contains(r.text.as_str())));
    }

    #[test]
    fn every_pass_has_the_same_mix() {
        for w in Workload::ALL {
            let mut g = Generator::new(w, 3, 0);
            let mix = |pass: Vec<Request>| {
                let mut names: Vec<String> = pass
                    .into_iter()
                    .map(|r| r.key.split('/').next().unwrap().to_string())
                    .collect();
                names.sort();
                names
            };
            let first = mix(g.next_pass());
            for _ in 0..10 {
                assert_eq!(mix(g.next_pass()), first, "{}", w.name());
            }
        }
        assert_eq!(
            Generator::new(Workload::ClioNested, 1, 0).next_pass().len(),
            3
        );
        assert_eq!(
            Generator::new(Workload::XmarkInproc, 1, 0)
                .next_pass()
                .len(),
            20
        );
        assert_eq!(
            Generator::new(Workload::ServeHot, 1, 0).next_pass().len(),
            8
        );
    }

    #[test]
    fn generated_keys_are_golden_keys() {
        for w in Workload::ALL {
            let keys: HashSet<String> = w.keys().into_iter().collect();
            assert_eq!(keys.len(), w.keys().len(), "{}: duplicate key", w.name());
            let queries = w.queries();
            for r in request_list(w, 5, 30) {
                assert!(keys.contains(&r.key));
                assert_eq!(
                    r.key.split('/').next(),
                    Some(queries[r.query as usize].as_str())
                );
            }
            assert_eq!(w.reference_requests().len(), keys.len());
        }
        assert_eq!(TEMPLATES.len(), 40);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
