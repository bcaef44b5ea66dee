//! Seeded inputs: the documents, the policies, the requester population
//! and the operation script. The server receives only what is generated
//! here; the same `--seed` always yields the same inputs and script.

use crate::stats::Rng;
use xmlsec_authz::{parse_xacl, AuthorizationBase};
use xmlsec_subjects::{Directory, Requester};
use xmlsec_workload::{financial, hospital};
use xmlsec_xml::{serialize, Document, NodeId, SerializeOptions};

const HOSPITAL_XACL: &str = include_str!("../../examples/policies/hospital.xacl");
const FINANCIAL_XACL: &str = include_str!("../../examples/policies/financial.xacl");

/// Cold pairs opened per round, alternating GET and query.
pub const COLD_PER_ROUND: usize = 2;
/// Hot-set operations per round.
pub const HOT_PER_ROUND: usize = 40;
/// One round in this many carries a denied batch.
pub const DENIED_EVERY: usize = 8;

/// Which corpus and policy a workload serves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Domain {
    /// Hospital wards under `hospital.xacl` (schema-level policy only).
    Wards,
    /// Bank statements under `financial.xacl`, with per-document instance
    /// authorizations and location-restricted tellers.
    Statements,
}

/// One requester class: who asks, and from where.
pub struct Class {
    pub name: &'static str,
    pub user: Option<&'static str>,
    pub ip: &'static str,
    pub host: &'static str,
}

impl Class {
    /// The requester the server authenticates this class as.
    pub fn requester(&self) -> Requester {
        Requester::new(self.user.unwrap_or("anonymous"), self.ip, self.host)
            .expect("class locations are valid")
    }
}

const WARD_CLASSES: [Class; 5] = [
    Class { name: "nurse", user: Some("nina"), ip: "10.0.0.7", host: "ward3.hospital.org" },
    Class { name: "physician", user: Some("hale"), ip: "10.0.0.8", host: "ward3.hospital.org" },
    Class { name: "psychiatrist", user: Some("weiss"), ip: "10.0.0.9", host: "psych.hospital.org" },
    Class { name: "administrator", user: Some("omar"), ip: "10.0.1.4", host: "admin.hospital.org" },
    Class { name: "anonymous", user: None, ip: "203.0.113.5", host: "visitor.example.net" },
];

const STATEMENT_CLASSES: [Class; 4] = [
    Class { name: "teller", user: Some("tina"), ip: "10.1.2.3", host: "t1.branch.bank.com" },
    Class {
        name: "teller-offbranch",
        user: Some("tina"),
        ip: "192.168.7.7",
        host: "home.example.net",
    },
    Class { name: "auditor", user: Some("axel"), ip: "10.9.9.9", host: "audit.bank.com" },
    Class { name: "fraud-desk", user: Some("fred"), ip: "10.9.9.10", host: "fraud.bank.com" },
];

const WARD_QUERIES: [&str; 4] = [
    r#"//patient[@status="admitted"]/name"#,
    r#"//entry[@kind="general"]/note"#,
    "//billing/item/@amount",
    r#"/ward/patient/history/entry[@kind="psychiatric"]/physician"#,
];

const STATEMENT_QUERIES: [&str; 4] = [
    r#"//account[@kind="savings"]/balance"#,
    r#"//transaction[@flagged="yes"]/memo"#,
    "/statements/account/owner",
    "//transaction/@amount",
];

// Class indices the write rounds and the property checks refer to.
pub const NURSE: usize = 0;
pub const PHYSICIAN: usize = 1;
pub const PSYCHIATRIST: usize = 2;
pub const ADMINISTRATOR: usize = 3;
pub const TELLER: usize = 0;
pub const TELLER_OFFBRANCH: usize = 1;
pub const FRAUD_DESK: usize = 3;

impl Domain {
    pub fn parse(name: &str) -> Option<Domain> {
        match name {
            "wards" => Some(Domain::Wards),
            "statements" => Some(Domain::Statements),
            _ => None,
        }
    }

    pub fn classes(self) -> &'static [Class] {
        match self {
            Domain::Wards => &WARD_CLASSES,
            Domain::Statements => &STATEMENT_CLASSES,
        }
    }

    pub fn queries(self) -> &'static [&'static str] {
        match self {
            Domain::Wards => &WARD_QUERIES,
            Domain::Statements => &STATEMENT_QUERIES,
        }
    }

    pub fn dtd_uri(self) -> &'static str {
        match self {
            Domain::Wards => hospital::HOSPITAL_DTD_URI,
            Domain::Statements => financial::BANK_DTD_URI,
        }
    }

    pub fn dtd_text(self) -> &'static str {
        match self {
            Domain::Wards => hospital::HOSPITAL_DTD,
            Domain::Statements => financial::BANK_DTD,
        }
    }

    pub fn root_element(self) -> &'static str {
        match self {
            Domain::Wards => "ward",
            Domain::Statements => "statements",
        }
    }

    pub fn directory(self) -> Directory {
        match self {
            Domain::Wards => hospital::hospital_directory(),
            Domain::Statements => financial::bank_directory(),
        }
    }

    /// Cold (document, requester) pairs, over documents evenly spaced in
    /// size. Every pair is touched exactly once; the pool lasts about one
    /// 25 s run here, and rounds after it runs out carry no cold pair.
    fn cold_pairs(self) -> usize {
        match self {
            Domain::Wards => 300,
            Domain::Statements => 400,
        }
    }

    /// Patients or accounts for ~50 KB … ~650 KB documents.
    fn cold_units(self) -> (usize, usize) {
        match self {
            Domain::Wards => (110, 1450),
            Domain::Statements => (128, 1660),
        }
    }

    /// The hot set, from a few KB to ~500 KB.
    fn hot_units(self) -> [usize; 4] {
        match self {
            Domain::Wards => [8, 110, 450, 1100],
            Domain::Statements => [10, 128, 510, 1270],
        }
    }

    /// The written document, ~500 KB.
    fn write_units(self) -> usize {
        match self {
            Domain::Wards => 1100,
            Domain::Statements => 1270,
        }
    }

    fn uri_prefix(self) -> &'static str {
        match self {
            Domain::Wards => "ward",
            Domain::Statements => "stmt",
        }
    }

    pub fn generate(self, units: usize, gen_seed: u64) -> Document {
        match self {
            Domain::Wards => hospital::hospital_scaled(units, gen_seed),
            Domain::Statements => financial::financial_scaled(units, gen_seed),
        }
    }
}

/// The workload's authorization base: the domain's example XACL, its
/// instance-level authorizations copied onto each of `uris`.
pub fn policy(domain: Domain, uris: &[&str]) -> AuthorizationBase {
    let (xacl, instance_uri) = match domain {
        Domain::Wards => (HOSPITAL_XACL, None),
        Domain::Statements => (FINANCIAL_XACL, Some(financial::STATEMENTS_URI)),
    };
    let mut base = AuthorizationBase::new();
    for a in parse_xacl(xacl).expect("the example policy parses") {
        if Some(a.object.uri.as_str()) == instance_uri {
            for uri in uris {
                let mut copy = a.clone();
                copy.object.uri = uri.to_string();
                base.add(copy);
            }
        } else {
            base.add(a);
        }
    }
    base
}

/// What a document is for in the script.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    Cold,
    Hot,
    Write,
}

pub struct DocSpec {
    pub uri: String,
    pub units: usize,
    pub gen_seed: u64,
    pub role: Role,
}

impl DocSpec {
    /// The document bytes as stored on the server.
    pub fn render(&self, domain: Domain) -> String {
        serialize(&domain.generate(self.units, self.gen_seed), &SerializeOptions::canonical())
    }
}

/// One workload's generated inputs.
pub struct Workload {
    pub domain: Domain,
    pub seed: u64,
    pub docs: Vec<DocSpec>,
    pub dir: Directory,
    pub base: AuthorizationBase,
    pub script: Script,
}

impl Workload {
    pub fn generate(domain: Domain, seed: u64) -> Workload {
        let mut rng = Rng::new(seed, 1);
        let prefix = domain.uri_prefix();
        let mut docs = Vec::new();
        let (lo, hi) = domain.cold_units();
        let cold_docs = domain.cold_pairs() / domain.classes().len();
        for i in 0..cold_docs {
            docs.push(DocSpec {
                uri: format!("{prefix}-cold{i:03}.xml"),
                units: lo + (hi - lo) * i / (cold_docs - 1),
                gen_seed: rng.next_u64(),
                role: Role::Cold,
            });
        }
        for (i, units) in domain.hot_units().into_iter().enumerate() {
            docs.push(DocSpec {
                uri: format!("{prefix}-hot{i}.xml"),
                units,
                gen_seed: rng.next_u64(),
                role: Role::Hot,
            });
        }
        docs.push(DocSpec {
            uri: format!("{prefix}-write.xml"),
            units: domain.write_units(),
            gen_seed: rng.next_u64(),
            role: Role::Write,
        });

        let uris: Vec<&str> = docs.iter().map(|d| d.uri.as_str()).collect();
        let base = policy(domain, &uris);
        let script = Script::generate(domain, seed, &docs);
        Workload { domain, seed, docs, dir: domain.directory(), base, script }
    }

    pub fn write_doc(&self) -> usize {
        self.docs
            .iter()
            .position(|d| d.role == Role::Write)
            .expect("one written document")
    }
}

/// The operation kinds; each end-to-end latency metric covers one kind,
/// set by the script, never by the server's hit or miss flag.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// First GET of a (document, requester) pair.
    ViewCold,
    /// First operation on a pair is a `?q=` query.
    Query,
    /// Repeat GET of a warmed pair.
    ViewWarm,
    /// GET with `If-None-Match` of the current tag.
    Revalidate,
    /// A permitted `POST /update` batch.
    Update,
    /// Each class's first GET of the written document after a commit.
    ReadAfterUpdate,
    /// A batch the policy statically forbids.
    UpdateDenied,
}

pub const KINDS: [Kind; 7] = [
    Kind::ViewCold,
    Kind::Query,
    Kind::ViewWarm,
    Kind::Revalidate,
    Kind::Update,
    Kind::ReadAfterUpdate,
    Kind::UpdateDenied,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ViewCold => "view_cold",
            Kind::Query => "query",
            Kind::ViewWarm => "view_warm",
            Kind::Revalidate => "revalidate",
            Kind::Update => "update",
            Kind::ReadAfterUpdate => "read_after_update",
            Kind::UpdateDenied => "update_denied",
        }
    }

    pub fn expected_status(self) -> u16 {
        match self {
            Kind::Revalidate => 304,
            Kind::UpdateDenied => 403,
            _ => 200,
        }
    }
}

/// One edit to the written document, as the op batch the client sends
/// and as the plain DOM calls the checker replays on its shadow copy.
#[derive(Clone, Debug)]
pub enum Edit {
    /// Append a general history entry to a patient.
    Entry { patient: usize, date: String, note: String },
    /// Add a billing item to an admitted patient.
    Billing { patient: usize, amount: u32 },
    /// Amend the payee of an account's `tx`-th transaction (1-based).
    Payee { account: usize, tx: usize, text: String },
    /// Annotate the memo of an account's flagged `tx`-th transaction.
    Memo { account: usize, tx: usize, text: String },
}

impl Edit {
    /// The `POST /update` body (one op, tab-separated fields).
    pub fn body(&self) -> String {
        match self {
            Edit::Entry { patient, date, note } => format!(
                "insertsub /ward/patient[@id=\"p{patient}\"]/history\t<entry kind=\"general\" \
                 date=\"{date}\"><physician>Dr. Hale</physician><note>{note}</note></entry>\n"
            ),
            Edit::Billing { patient, amount } => format!(
                "insertsub /ward/patient[@id=\"p{patient}\"]/billing\t<item \
                 amount=\"{amount}\">Treatment</item>\n"
            ),
            Edit::Payee { account, tx, text } => format!(
                "settext /statements/account[@number=\"{}\"]/transaction[{tx}]/payee\t{text}\n",
                1000 + account
            ),
            Edit::Memo { account, tx, text } => format!(
                "settext /statements/account[@number=\"{}\"]/transaction[{tx}]/memo\t{text}\n",
                1000 + account
            ),
        }
    }

    /// Replays the edit on `doc` with plain DOM calls. Panics when the
    /// target is missing: the script only names nodes it generated.
    pub fn apply(&self, doc: &mut Document) {
        let child = |doc: &Document, parent: NodeId, name: &str, nth: usize| -> NodeId {
            doc.child_elements(parent)
                .filter(|&c| doc.element_name(c) == Some(name))
                .nth(nth)
                .unwrap_or_else(|| panic!("script target <{name}>[{nth}] exists"))
        };
        let set_text = |doc: &mut Document, n: NodeId, text: &str| {
            for c in doc.children(n).to_vec() {
                if doc.is_text(c) {
                    doc.remove_subtree(c);
                }
            }
            doc.append_text(n, text);
        };
        let root = doc.root();
        match self {
            Edit::Entry { patient, date, note } => {
                let p = child(doc, root, "patient", *patient);
                let h = child(doc, p, "history", 0);
                let e = doc.append_element(h, "entry");
                doc.set_attribute(e, "kind", "general").expect("element");
                doc.set_attribute(e, "date", date).expect("element");
                let ph = doc.append_element(e, "physician");
                doc.append_text(ph, "Dr. Hale");
                let n = doc.append_element(e, "note");
                doc.append_text(n, note);
            }
            Edit::Billing { patient, amount } => {
                let p = child(doc, root, "patient", *patient);
                let b = child(doc, p, "billing", 0);
                let item = doc.append_element(b, "item");
                doc.set_attribute(item, "amount", &amount.to_string()).expect("element");
                doc.append_text(item, "Treatment");
            }
            Edit::Payee { account, tx, text } => {
                let a = child(doc, root, "account", *account);
                let t = child(doc, a, "transaction", tx - 1);
                let p = child(doc, t, "payee", 0);
                set_text(doc, p, text);
            }
            Edit::Memo { account, tx, text } => {
                let a = child(doc, root, "account", *account);
                let t = child(doc, a, "transaction", tx - 1);
                let m = child(doc, t, "memo", 0);
                set_text(doc, m, text);
            }
        }
    }
}

/// What the script may edit in the written document.
struct Targets {
    patients: usize,
    admitted: Vec<usize>,
    /// Per account: its transaction count.
    transactions: Vec<usize>,
    /// (account, 1-based transaction index) of each flagged transaction.
    flagged: Vec<(usize, usize)>,
}

impl Targets {
    fn of(doc: &Document) -> Targets {
        let mut t =
            Targets { patients: 0, admitted: vec![], transactions: vec![], flagged: vec![] };
        let top: Vec<NodeId> = doc.child_elements(doc.root()).collect();
        for (i, &n) in top.iter().enumerate() {
            match doc.element_name(n) {
                Some("patient") => {
                    t.patients += 1;
                    if doc.attribute(n, "status") == Some("admitted") {
                        t.admitted.push(i);
                    }
                }
                Some("account") => {
                    let txs: Vec<NodeId> = doc
                        .child_elements(n)
                        .filter(|&c| doc.element_name(c) == Some("transaction"))
                        .collect();
                    for (j, &tx) in txs.iter().enumerate() {
                        if doc.attribute(tx, "flagged") == Some("yes") {
                            t.flagged.push((i, j + 1));
                        }
                    }
                    t.transactions.push(txs.len());
                }
                _ => {}
            }
        }
        t
    }
}

/// One scripted operation.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: Kind,
    pub doc: usize,
    pub class: usize,
    pub query: Option<usize>,
    pub edit: Option<Edit>,
    pub round: usize,
}

/// The seeded operation script. Rounds are generated on demand, so a run
/// takes as many whole rounds as fit in its time.
pub struct Script {
    domain: Domain,
    seed: u64,
    /// Cold pairs in the order they are opened: (doc, class, query).
    cold: Vec<(usize, usize, Option<usize>)>,
    /// Warmed (doc, class) pairs.
    pub hot: Vec<(usize, usize)>,
    write_doc: usize,
    targets: Targets,
}

impl Script {
    fn generate(domain: Domain, seed: u64, docs: &[DocSpec]) -> Script {
        let classes = domain.classes().len();
        let mut rng = Rng::new(seed, 2);
        // Documents open in bit-reversed size order, so any prefix of
        // the pool spans the whole size range; within a document the
        // classes come in seeded order, half of them (alternating with the
        // size rank) open with a query, and the queries take turns.
        let cold_docs: Vec<usize> =
            (0..docs.len()).filter(|&i| docs[i].role == Role::Cold).collect();
        let bits = usize::BITS - (cold_docs.len() - 1).leading_zeros();
        let mut order: Vec<usize> = (0..cold_docs.len()).collect();
        order.sort_by_key(|&k| k.reverse_bits() >> (usize::BITS - bits));
        let queries = domain.queries().len();
        let mut next_query = rng.below(queries);
        let mut cold = Vec::new();
        for &k in &order {
            let mut cs: Vec<usize> = (0..classes).collect();
            rng.shuffle(&mut cs);
            for c in cs {
                let query = ((c + k) % 2 == 1).then(|| {
                    next_query += 1;
                    next_query % queries
                });
                cold.push((cold_docs[k], c, query));
            }
        }
        let hot = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.role == Role::Hot)
            .flat_map(|(i, _)| (0..classes).map(move |c| (i, c)))
            .collect();
        let write_doc = docs.iter().position(|d| d.role == Role::Write).expect("written doc");
        let w = &docs[write_doc];
        let targets = Targets::of(&domain.generate(w.units, w.gen_seed));
        Script { domain, seed, cold, hot, write_doc, targets }
    }

    /// Number of cold pairs the script can open.
    pub fn cold_len(&self) -> usize {
        self.cold.len()
    }

    /// The permitted batch of round `r`, and its writer class.
    fn permitted(&self, r: usize, rng: &mut Rng) -> (usize, Edit) {
        let t = &self.targets;
        // Writers alternate, so every run holds the same mix of batches.
        match (self.domain, r.is_multiple_of(2)) {
            (Domain::Wards, true) => (
                PHYSICIAN,
                Edit::Entry {
                    patient: rng.below(t.patients),
                    date: format!("2000-03-{:02}", 1 + rng.below(28)),
                    note: format!("Round {r} follow-up."),
                },
            ),
            (Domain::Wards, false) => (
                ADMINISTRATOR,
                Edit::Billing {
                    patient: t.admitted[rng.below(t.admitted.len())],
                    amount: 20 + rng.below(480) as u32,
                },
            ),
            (Domain::Statements, true) => {
                let account = rng.below(t.transactions.len());
                let tx = 1 + rng.below(t.transactions[account]);
                (TELLER, Edit::Payee { account, tx, text: format!("Payee amended {r}") })
            }
            (Domain::Statements, false) => {
                let (account, tx) = t.flagged[rng.below(t.flagged.len())];
                (FRAUD_DESK, Edit::Memo { account, tx, text: format!("Reviewed in round {r}") })
            }
        }
    }

    /// The class whose batches the policy statically forbids.
    fn denier(&self) -> usize {
        match self.domain {
            Domain::Wards => NURSE,
            Domain::Statements => TELLER_OFFBRANCH,
        }
    }
}

/// Walks the script round by round.
pub struct Stream<'a> {
    script: &'a Script,
    round: usize,
    cold_next: usize,
    hot_pos: usize,
    hot_cycle: Vec<(usize, Kind)>,
}

impl<'a> Stream<'a> {
    pub fn new(script: &'a Script) -> Stream<'a> {
        Stream { script, round: 0, cold_next: 0, hot_pos: 0, hot_cycle: Vec::new() }
    }

    /// The hot stream: cycles over every warmed pair, each pair taking
    /// three plain GETs and one revalidation per cycle, shuffled.
    fn next_hot(&mut self) -> (usize, Kind) {
        let s = self.script;
        let per_cycle = s.hot.len() * 4;
        let i = self.hot_pos % per_cycle;
        if i == 0 {
            let cycle = (self.hot_pos / per_cycle) as u64;
            let mut v: Vec<(usize, Kind)> = (0..s.hot.len())
                .flat_map(|p| {
                    [Kind::ViewWarm, Kind::ViewWarm, Kind::ViewWarm, Kind::Revalidate]
                        .map(|k| (p, k))
                })
                .collect();
            Rng::new(s.seed, 1000 + cycle).shuffle(&mut v);
            self.hot_cycle = v;
        }
        self.hot_pos += 1;
        self.hot_cycle[i]
    }

    pub fn next_round(&mut self) -> Vec<Op> {
        let s = self.script;
        let r = self.round;
        self.round += 1;
        let op = |kind, doc, class| Op { kind, doc, class, query: None, edit: None, round: r };
        let mut ops = Vec::new();
        for _ in 0..COLD_PER_ROUND {
            if let Some(&(doc, class, query)) = s.cold.get(self.cold_next) {
                self.cold_next += 1;
                let kind = if query.is_some() { Kind::Query } else { Kind::ViewCold };
                ops.push(Op { query, ..op(kind, doc, class) });
            }
        }
        for _ in 0..HOT_PER_ROUND {
            let (pair, kind) = self.next_hot();
            let (doc, class) = s.hot[pair];
            ops.push(op(kind, doc, class));
        }
        let mut rng = Rng::new(s.seed, 10_000 + r as u64);
        let block = (r / DENIED_EVERY) as u64;
        if r % DENIED_EVERY == Rng::new(s.seed, 500_000 + block).below(DENIED_EVERY) {
            // The denied batch would have made the same kind of edit the
            // permitted writers make; the denier's view must not move.
            let (_, edit) = s.permitted(r, &mut Rng::new(s.seed, 20_000 + r as u64));
            ops.push(Op { edit: Some(edit), ..op(Kind::UpdateDenied, s.write_doc, s.denier()) });
            ops.push(op(Kind::Revalidate, s.write_doc, s.denier()));
        }
        let (writer, edit) = s.permitted(r, &mut rng);
        ops.push(Op { edit: Some(edit), ..op(Kind::Update, s.write_doc, writer) });
        for c in 0..s.domain.classes().len() {
            ops.push(op(Kind::ReadAfterUpdate, s.write_doc, c));
        }
        ops
    }
}
