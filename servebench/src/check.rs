//! The output checker. It never compares against saved output: every
//! view is checked against `compute_view_naive` over the benchmark's own
//! parse of the bytes it generated (all of the hot set and the written
//! document's final state, a seeded sample of the rest), against policy
//! properties that need no engine, and against the loosened DTD it was
//! served with. Committed batches are replayed onto a shadow document
//! with plain DOM calls.

use crate::client;
use crate::corpus::{self, Domain, Kind, Role};
use crate::serve::{self, Phase, Record, Setup};
use crate::stats::{fnv, Rng};
use std::collections::BTreeMap;
use xmlsec_authz::{Action, AuthorizationBase, PolicyConfig};
use xmlsec_dtd::{loosen, normalize, parse_dtd, serialize_dtd, Dtd, Validator};
use xmlsec_subjects::Directory;
use xmlsec_xml::{parse, serialize, serialize_node, Document, SerializeOptions};

/// Cold pairs of each kind (GET, query) checked against the naive oracle.
const NAIVE_COLD_PER_KIND: usize = 3;

pub struct Checker<'a> {
    domain: Domain,
    base: &'a AuthorizationBase,
    dir: &'a Directory,
    dtd: Dtd,
}

/// Separates a view response body into the view and its loosened DTD.
fn split_view(body: &str) -> Option<(&str, &str)> {
    body.split_once("\n<!-- loosened DTD -->\n")
}

/// Elements named `name` whose attribute `attr` equals `value`.
fn count_in(doc: &Document, name: &str, attr: &str, value: &str) -> usize {
    doc.preorder(doc.root())
        .filter(|&n| doc.element_name(n) == Some(name) && doc.attribute(n, attr) == Some(value))
        .count()
}

/// The body `GET …&q=` answers for `query` over `view`: each match
/// serialized (attribute matches as their value), one per line.
pub fn query_body(view: &Document, query: &str) -> Result<String, String> {
    let path = xmlsec_xpath::parse_path(query).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for n in xmlsec_xpath::select(view, &path) {
        if view.is_attribute(n) {
            out.push_str(view.attr_value(n).unwrap_or_default());
        } else {
            out.push_str(&serialize_node(view, n));
        }
        out.push('\n');
    }
    Ok(out)
}

impl<'a> Checker<'a> {
    pub fn new(domain: Domain, base: &'a AuthorizationBase, dir: &'a Directory) -> Checker<'a> {
        let dtd = parse_dtd(domain.dtd_text()).expect("the domain DTD parses");
        Checker { domain, base, dir, dtd }
    }

    /// The benchmark's own parse of generated bytes, normalized against
    /// the DTD as the server normalizes what it serves.
    pub fn source(&self, text: &str) -> Document {
        let mut doc = parse(text).expect("generated documents are well-formed");
        normalize(&self.dtd, &mut doc);
        doc
    }

    /// The naive evaluator's view of `source` for a requester class.
    pub fn oracle(&self, uri: &str, class: usize, source: &Document) -> String {
        let rq = self.domain.classes()[class].requester();
        let axml = self.base.applicable_for_action(uri, &rq, self.dir, Action::Read);
        let adtd =
            self.base
                .applicable_for_action(self.domain.dtd_uri(), &rq, self.dir, Action::Read);
        let (view, _) = xmlsec_core::compute_view_naive(
            source,
            &axml,
            &adtd,
            self.dir,
            PolicyConfig::paper_default(),
        );
        serialize(&view, &SerializeOptions::canonical())
    }

    /// Everything wrong with one served view body for `class` over
    /// `source`; `oracle` is the naive view when this one is sampled.
    pub fn view_problems(
        &self,
        class: usize,
        source: &Document,
        body: &[u8],
        oracle: Option<&str>,
    ) -> Vec<String> {
        let who = self.domain.classes()[class].name;
        let mut bad = Vec::new();
        let Ok(body) = std::str::from_utf8(body) else {
            return vec![format!("{who}: body is not UTF-8")];
        };
        let Some((view, loosened)) = split_view(body) else {
            return vec![format!("{who}: body carries no loosened DTD")];
        };
        if let Some(expected) = oracle {
            if view != expected {
                bad.push(format!(
                    "{who}: view differs from the naive oracle ({} vs {} bytes)",
                    view.len(),
                    expected.len()
                ));
            }
        }
        let has = |s: &str| view.contains(s);
        let psych = r#"kind="psychiatric""#;
        let property = match (self.domain, class) {
            (Domain::Wards, corpus::NURSE | corpus::PHYSICIAN) => (!has(psych) && !has("<billing"))
                .then_some(())
                .ok_or("holds psychiatric or billing"),
            (Domain::Wards, corpus::PSYCHIATRIST) => (view.matches(psych).count()
                == count_in(source, "entry", "kind", "psychiatric"))
            .then_some(())
            .ok_or("misses psychiatric entries of the source"),
            (Domain::Wards, corpus::ADMINISTRATOR) => {
                (!has("<history")).then_some(()).ok_or("holds case histories")
            }
            (Domain::Wards, _) => (view == "<ward/>").then_some(()).ok_or("anonymous sees data"),
            (Domain::Statements, corpus::TELLER) => {
                (!has("<transaction")).then_some(()).ok_or("teller sees transactions")
            }
            (Domain::Statements, corpus::TELLER_OFFBRANCH) => (view == "<statements/>")
                .then_some(())
                .ok_or("off-branch teller sees account data"),
            (Domain::Statements, corpus::FRAUD_DESK) => (view.matches(r#"flagged="yes""#).count()
                == count_in(source, "transaction", "flagged", "yes"))
            .then_some(())
            .ok_or("misses flagged transactions"),
            (Domain::Statements, _) => (!has("<memo")).then_some(()).ok_or("auditor sees memos"),
        };
        if let Err(p) = property {
            bad.push(format!("{who}: {p}"));
        }
        match (parse(view), parse_dtd(loosened)) {
            (Ok(doc), Ok(dtd)) => {
                if let Some(e) = Validator::new(&dtd).validate(&doc).first() {
                    bad.push(format!("{who}: view invalid against its loosened DTD: {e}"));
                }
            }
            (Err(e), _) => bad.push(format!("{who}: view does not parse: {e}")),
            (_, Err(e)) => bad.push(format!("{who}: loosened DTD does not parse: {e}")),
        }
        bad
    }

    /// Feeds the checker a correct view, one with a node dropped and one
    /// with a psychiatric entry leaked into a nurse's view; the first
    /// must pass and the other two must be flagged.
    pub fn self_test(seed: u64) -> Result<(), String> {
        let base = corpus::policy(Domain::Wards, &[]);
        let dir = Domain::Wards.directory();
        let ck = Checker::new(Domain::Wards, &base, &dir);
        let text = serialize(&Domain::Wards.generate(40, seed), &SerializeOptions::canonical());
        let source = ck.source(&text);
        let oracle = ck.oracle("self-test.xml", corpus::NURSE, &source);
        let loosened = serialize_dtd(&loosen(&ck.dtd));
        let body = |view: &str| format!("{view}\n<!-- loosened DTD -->\n{loosened}").into_bytes();
        let flagged = |view: &str| {
            !ck.view_problems(corpus::NURSE, &source, &body(view), Some(&oracle)).is_empty()
        };
        if flagged(&oracle) {
            return Err("self-test: the checker rejects a correct view".into());
        }
        let find = |doc: &Document, name: &str| {
            doc.preorder(doc.root()).find(|&n| doc.element_name(n) == Some(name))
        };
        let mut dropped = parse(&oracle).map_err(|e| e.to_string())?;
        let note = find(&dropped, "note").ok_or("self-test: no note to drop")?;
        dropped.remove_subtree(note);
        if !flagged(&serialize(&dropped, &SerializeOptions::canonical())) {
            return Err("self-test: a view with a dropped node passed the checker".into());
        }
        let entry = source
            .preorder(source.root())
            .find(|&n| source.attribute(n, "kind") == Some("psychiatric"))
            .ok_or("self-test: the source holds no psychiatric entry")?;
        let patient_id = source
            .ancestors(entry)
            .find_map(|a| {
                source.attribute(a, "id").filter(|_| source.element_name(a) == Some("patient"))
            })
            .ok_or("self-test: entry outside a patient")?
            .to_string();
        let mut leaked = parse(&oracle).map_err(|e| e.to_string())?;
        let patient = leaked
            .preorder(leaked.root())
            .find(|&n| leaked.attribute(n, "id") == Some(patient_id.as_str()))
            .ok_or("self-test: patient missing from the nurse's view")?;
        let history = leaked
            .child_elements(patient)
            .find(|&c| leaked.element_name(c) == Some("history"))
            .ok_or("self-test: history missing from the nurse's view")?;
        leaked.import_subtree(history, &source, entry);
        let leaked = serialize(&leaked, &SerializeOptions::canonical());
        // The leak must be caught by the oracle and by the engine-free
        // properties alone.
        let by_properties =
            !ck.view_problems(corpus::NURSE, &source, &body(&leaked), None).is_empty();
        if !flagged(&leaked) || !by_properties {
            return Err("self-test: a leaked psychiatric entry passed the checker".into());
        }
        Ok(())
    }
}

/// A cold pair's served view, as fetched again by the checker.
pub struct ColdView {
    /// Index of the operation in the phase.
    pub op: usize,
    pub doc: usize,
    pub class: usize,
    /// FNV-1a of the view bytes (without the loosened DTD).
    pub hash: u64,
    /// The view is the bare document element: no rights at all.
    pub bare: bool,
}

/// What checking a phase found.
pub struct Checked {
    pub problems: Vec<String>,
    pub cold: Vec<ColdView>,
}

/// Checks every output of a timed phase. Statuses are judged by
/// [`Record::failed`]; this judges content.
pub fn check_phase(s: &mut Setup, phase: &Phase) -> Result<Checked, String> {
    let w = &s.workload;
    let ck = Checker::new(w.domain, &w.base, &w.dir);
    let mut bad = Vec::new();
    let refetch = |s_client: &mut client::Client, doc: usize, class: usize| {
        let r = s_client
            .call(&client::get(&w.docs[doc].uri, &serve::who(w, class), None, None))
            .map_err(|e| format!("refetch: {e}"))?;
        if r.status != 200 {
            return Err(format!("refetch of {} gave {}", w.docs[doc].uri, r.status));
        }
        Ok::<Vec<u8>, String>(r.body)
    };

    // Cold pairs, grouped by document so each source is generated once.
    let (cold_ops, cold): (Vec<usize>, Vec<&Record>) = phase
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.op.kind, Kind::ViewCold | Kind::Query) && !r.failed())
        .unzip();
    let mut sampled = std::collections::HashSet::new();
    for kind in [Kind::ViewCold, Kind::Query] {
        let mut idx: Vec<usize> = (0..cold.len()).filter(|&i| cold[i].op.kind == kind).collect();
        Rng::new(w.seed, 3).shuffle(&mut idx);
        sampled.extend(idx.into_iter().take(NAIVE_COLD_PER_KIND));
    }
    let mut cold_views = Vec::new();
    let mut by_doc: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, r) in cold.iter().enumerate() {
        by_doc.entry(r.op.doc).or_default().push(i);
    }
    for (doc, idx) in by_doc {
        let source = ck.source(&w.docs[doc].render(w.domain));
        for i in idx {
            let r = cold[i];
            let class = r.op.class;
            let body = refetch(&mut s.client, doc, class)?;
            if r.op.kind == Kind::ViewCold && fnv(&body) != r.hash {
                bad.push(format!("{}: cold view changed between two reads", w.docs[doc].uri));
            }
            let oracle = sampled.contains(&i).then(|| ck.oracle(&w.docs[doc].uri, class, &source));
            bad.extend(ck.view_problems(class, &source, &body, oracle.as_deref()));
            let served = String::from_utf8_lossy(&body);
            let view = split_view(&served).map_or("", |(v, _)| v);
            let bare = view == format!("<{}/>", w.domain.root_element());
            let hash = fnv(view.as_bytes());
            cold_views.push(ColdView { op: cold_ops[i], doc, class, hash, bare });
            if let Some(q) = r.op.query {
                // Matches must equal select over the oracle view when one
                // was computed, else over the (checked) served view.
                let view = parse(oracle.as_deref().unwrap_or(view))
                    .map_err(|e| format!("view parse: {e}"))?;
                let expected = query_body(&view, w.domain.queries()[q])?;
                if fnv(expected.as_bytes()) != r.hash {
                    bad.push(format!(
                        "{}: query matches differ from select over the view",
                        w.docs[doc].uri
                    ));
                }
            }
        }
    }

    // The hot set: every op served the warmed bytes or tag, and every
    // warmed view matches the oracle.
    for r in phase
        .records
        .iter()
        .filter(|r| w.docs[r.op.doc].role == Role::Hot && !r.failed())
    {
        let warm = &s.warm[&(r.op.doc, r.op.class)];
        let same = match r.op.kind {
            Kind::Revalidate => r.etag.as_deref() == Some(warm.etag.as_str()),
            _ => r.hash == warm.hash,
        };
        if !same {
            bad.push(format!(
                "{}: hot response differs from the warmed view",
                w.docs[r.op.doc].uri
            ));
        }
    }
    for &(doc, class) in &w.script.hot {
        let source = ck.source(&w.docs[doc].render(w.domain));
        let body = refetch(&mut s.client, doc, class)?;
        if fnv(&body) != s.warm[&(doc, class)].hash {
            bad.push(format!("{}: warmed view changed", w.docs[doc].uri));
        }
        let oracle = ck.oracle(&w.docs[doc].uri, class, &source);
        bad.extend(ck.view_problems(class, &source, &body, Some(&oracle)));
    }

    // The written document: replay committed batches on a shadow copy.
    let wd = w.write_doc();
    let uri = &w.docs[wd].uri;
    let mut shadow = ck.source(&s.write_text);
    let mut last: BTreeMap<usize, u64> = BTreeMap::new();
    for r in phase.records.iter().filter(|r| r.op.doc == wd && !r.failed()) {
        match r.op.kind {
            Kind::Update => r.op.edit.as_ref().expect("updates carry an edit").apply(&mut shadow),
            Kind::Revalidate if r.etag != r.sent_tag => {
                bad.push(format!("{uri}: a denied batch moved the view's tag"));
            }
            Kind::ReadAfterUpdate => {
                if r.etag == r.sent_tag {
                    bad.push(format!("{uri}: the pre-commit tag still names the view"));
                }
                last.insert(r.op.class, r.hash);
                if let Some(body) = &r.body {
                    let oracle = ck.oracle(uri, r.op.class, &shadow);
                    bad.extend(ck.view_problems(r.op.class, &shadow, body, Some(&oracle)));
                }
            }
            _ => {}
        }
    }
    for class in 0..w.domain.classes().len() {
        let body = refetch(&mut s.client, wd, class)?;
        if last.get(&class).is_some_and(|&h| h != fnv(&body)) {
            bad.push(format!("{uri}: final view differs from the last read after a commit"));
        }
        let oracle = ck.oracle(uri, class, &shadow);
        bad.extend(ck.view_problems(class, &shadow, &body, Some(&oracle)));
    }
    Ok(Checked { problems: bad, cold: cold_views })
}
