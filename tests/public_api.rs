//! The public surface of the ten library crates, pinned as a file, so
//! every change to it is a reviewable diff line.
//!
//! A grep-level walk (std only: rustdoc's JSON output needs a nightly
//! toolchain) starts at each `crates/*/src/lib.rs`, follows `pub mod`
//! and `pub use`, and writes one sorted line per public name:
//!
//! ```text
//! armdse_x::path::Item kind          struct enum trait fn const static type mod
//! armdse_x::path::Type::method fn    an inherent `pub fn`, or a trait's own method
//! armdse_x::path::Enum::Variant variant
//! armdse_x::path::Type.field field
//! armdse_x::path::Name use           a re-export of another crate's item
//! ```
//!
//! A re-exported item brings its methods, variants and fields under the
//! re-exported name. A file is read up to its first column-0
//! `#[cfg(test)]`, the rule of the size ledger in `ci.sh`.
//!
//! On a mismatch the test prints the added and removed lines and writes
//! the new listing to `target/public_api.txt`; after review,
//! `cp target/public_api.txt tests/golden/public_api.txt`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Rust source as tokens: identifiers, `::`/`->`/`=>`, single
/// punctuation characters, and `"` standing for any literal. Comments
/// are dropped; lifetimes become `'`.
fn tokenize(src: &str) -> Vec<String> {
    let c: Vec<char> = src.chars().collect();
    let (mut out, mut i) = (Vec::new(), 0);
    let ident = |ch: char| ch.is_alphanumeric() || ch == '_';
    let at = |k: usize| c.get(k).copied().unwrap_or(' ');
    while i < c.len() {
        if c[i].is_whitespace() {
            i += 1;
        } else if c[i] == '/' && at(i + 1) == '/' {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if c[i] == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            loop {
                if c[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 1;
                } else if c[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        } else if c[i] == '"'
            || (c[i] == 'b' && at(i + 1) == '"')
            || (c[i] == 'r' && matches!(at(i + 1), '"' | '#'))
            || (c[i] == 'b' && at(i + 1) == 'r' && matches!(at(i + 2), '"' | '#'))
        {
            // (Byte / raw) string literal, or a raw identifier `r#x`.
            let start = i;
            while c[i] != '"' && c[i] != '#' {
                i += 1;
            }
            let hashes = c[i..].iter().take_while(|&&ch| ch == '#').count();
            if c[i + hashes] != '"' {
                i = start + 2; // `r#ident`: the identifier follows
                continue;
            }
            let raw = c[start..i].contains(&'r');
            i += hashes + 1;
            loop {
                if !raw && c[i] == '\\' {
                    i += 2;
                } else if c[i] == '"' && c[i + 1..].iter().take(hashes).all(|&ch| ch == '#') {
                    i += 1 + hashes;
                    break;
                } else {
                    i += 1;
                }
            }
            out.push("\"".into());
        } else if c[i] == '\'' || (c[i] == 'b' && at(i + 1) == '\'') {
            // Char literal, or a lifetime (`'a` not closed by a quote).
            i += usize::from(c[i] == 'b');
            if at(i + 1) == '\\' || at(i + 2) == '\'' {
                // Past the opening quote and one (escaped) character.
                i += 2 + usize::from(at(i + 1) == '\\');
                while c[i] != '\'' {
                    i += 1;
                }
                i += 1;
                out.push("\"".into());
            } else {
                i += 1;
                while ident(c[i]) {
                    i += 1;
                }
                out.push("'".into());
            }
        } else if c[i].is_ascii_digit() {
            while i < c.len() && (ident(c[i]) || (c[i] == '.' && at(i + 1).is_ascii_digit())) {
                i += 1;
            }
            out.push("\"".into());
        } else if ident(c[i]) {
            let start = i;
            while i < c.len() && ident(c[i]) {
                i += 1;
            }
            out.push(c[start..i].iter().collect());
        } else {
            let pair: String = [c[i], at(i + 1)].iter().collect();
            let long = matches!(pair.as_str(), "::" | "->" | "=>");
            out.push(if long { pair } else { c[i].to_string() });
            i += if long { 2 } else { 1 };
        }
    }
    out
}

/// Index just past the group opened at `t[i]` (`(`, `[` or `{`).
fn close(t: &[String], mut i: usize) -> usize {
    let mut depth = 0;
    loop {
        match t[i].as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
        i += 1;
        if depth == 0 {
            return i;
        }
    }
}

/// Index just past a `<...>` generic list starting at `t[i]`, or `i`.
fn skip_generics(t: &[String], mut i: usize) -> usize {
    if t.get(i).map(String::as_str) != Some("<") {
        return i;
    }
    let mut depth = 0;
    loop {
        match t[i].as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "(" | "[" | "{" => {
                i = close(t, i);
                continue;
            }
            _ => {}
        }
        i += 1;
        if depth == 0 {
            return i;
        }
    }
}

/// Split a group's inside at top-level commas (and, with `angles`, only
/// outside `<...>`), dropping empty pieces.
fn split_commas(t: &[String], angles: bool) -> Vec<&[String]> {
    let (mut pieces, mut start, mut i, mut angle) = (Vec::new(), 0, 0, 0i32);
    while i < t.len() {
        match t[i].as_str() {
            "(" | "[" | "{" => {
                i = close(t, i);
                continue;
            }
            "<" if angles => angle += 1,
            ">" if angles => angle -= 1,
            "," if angle == 0 => {
                pieces.push(&t[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    pieces.push(&t[start..]);
    pieces.retain(|p| !p.is_empty());
    pieces
}

/// Leading `#[..]` attributes and an optional visibility skipped:
/// `(public, index of what follows)`.
fn visibility(t: &[String], mut i: usize) -> (bool, usize) {
    while t.get(i).map(String::as_str) == Some("#") {
        i += 1 + usize::from(t[i + 1] == "!");
        i = close(t, i);
    }
    if t.get(i).map(String::as_str) != Some("pub") {
        return (false, i);
    }
    match t.get(i + 1).map(String::as_str) {
        Some("(") => (false, close(t, i + 1)),
        _ => (true, i + 1),
    }
}

/// One declaration of a module, trait or impl body.
enum Decl {
    /// A named item; `members` are suffixes such as `::run fn`.
    Item {
        public: bool,
        kind: &'static str,
        name: String,
        members: Vec<String>,
    },
    /// `mod name;` (body `None`, read from its file) or `mod name { .. }`.
    Mod {
        public: bool,
        name: String,
        body: Option<Vec<Decl>>,
    },
    /// A `use` tree flattened to `(path, alias)` pairs.
    Use {
        public: bool,
        paths: Vec<(Vec<String>, String)>,
    },
    /// An inherent impl's public methods and constants, as suffixes.
    Impl {
        self_ty: String,
        members: Vec<String>,
    },
}

/// Flatten a `use` tree under `prefix`.
fn use_paths(t: &[String], prefix: &[String], out: &mut Vec<(Vec<String>, String)>) {
    let mut path = prefix.to_vec();
    let mut i = 0;
    while i < t.len() {
        match t[i].as_str() {
            "::" => {}
            "{" => {
                let end = close(t, i);
                for piece in split_commas(&t[i + 1..end - 1], false) {
                    use_paths(piece, &path, out);
                }
                return;
            }
            "*" => panic!("glob re-export under {path:?}: list its items instead"),
            "as" => {
                out.push((path, t[i + 1].clone()));
                return;
            }
            "self" if i > 0 || !prefix.is_empty() => {}
            seg => path.push(seg.to_string()),
        }
        i += 1;
    }
    let alias = path.last().expect("non-empty use path").clone();
    out.push((path, alias));
}

/// The declarations of one module, trait or impl body.
fn parse(t: &[String]) -> Vec<Decl> {
    let (mut decls, mut i) = (Vec::new(), 0);
    while i < t.len() {
        let (public, mut j) = visibility(t, i);
        if j >= t.len() {
            break;
        }
        while matches!(
            t[j].as_str(),
            "unsafe" | "async" | "default" | "extern" | "\""
        ) || (t[j] == "const" && matches!(t[j + 1].as_str(), "fn" | "unsafe" | "async"))
        {
            j += 1;
        }
        let keyword = t[j].as_str();
        let name = t.get(j + 1).cloned().unwrap_or_default();
        // Index of the item's body group, or of its terminating `;`.
        let body_or_semi = |mut k: usize, braces_end: bool| loop {
            match t[k].as_str() {
                ";" => return k,
                "{" if braces_end => return k,
                "(" | "[" | "{" => k = close(t, k),
                _ => k += 1,
            }
        };
        let end_of = |k: usize| if t[k] == ";" { k + 1 } else { close(t, k) };
        let item = |kind, members| Decl::Item {
            public,
            kind,
            name: name.clone(),
            members,
        };
        match keyword {
            "mod" => {
                let k = j + 2;
                let body = (t[k] == "{").then(|| parse(&t[k + 1..close(t, k) - 1]));
                decls.push(Decl::Mod { public, name, body });
                i = end_of(k);
            }
            "struct" | "union" => {
                let k = skip_generics(t, j + 2);
                let mut members = Vec::new();
                if t[k] == "(" {
                    let fields = split_commas(&t[k + 1..close(t, k) - 1], true);
                    for (n, f) in fields.iter().enumerate() {
                        if visibility(f, 0).0 {
                            members.push(format!(".{n} field"));
                        }
                    }
                    i = body_or_semi(close(t, k), false) + 1;
                } else {
                    let b = body_or_semi(k, true);
                    if t[b] == "{" {
                        for f in split_commas(&t[b + 1..close(t, b) - 1], true) {
                            if let (true, n) = visibility(f, 0) {
                                members.push(format!(".{} field", f[n]));
                            }
                        }
                    }
                    i = end_of(b);
                }
                decls.push(item(
                    if keyword == "union" {
                        "union"
                    } else {
                        "struct"
                    },
                    members,
                ));
            }
            "enum" => {
                let b = body_or_semi(j + 2, true);
                let variants = split_commas(&t[b + 1..close(t, b) - 1], false);
                let names = variants.iter().map(|v| &v[visibility(v, 0).1]);
                decls.push(item(
                    "enum",
                    names.map(|v| format!("::{v} variant")).collect(),
                ));
                i = close(t, b);
            }
            "trait" => {
                let b = body_or_semi(j + 2, true);
                let members =
                    parse(&t[b + 1..close(t, b) - 1])
                        .into_iter()
                        .filter_map(|d| match d {
                            Decl::Item { kind, name, .. } => Some(format!("::{name} {kind}")),
                            _ => None,
                        });
                decls.push(item("trait", members.collect()));
                i = close(t, b);
            }
            "fn" => {
                decls.push(item("fn", Vec::new()));
                i = end_of(body_or_semi(j + 2, true));
            }
            "const" | "static" | "type" => {
                let k = j + 1 + usize::from(t[j + 1] == "mut");
                let kind = match keyword {
                    "const" => "const",
                    "static" => "static",
                    _ => "type",
                };
                decls.push(Decl::Item {
                    public,
                    kind,
                    name: t[k].clone(),
                    members: Vec::new(),
                });
                i = body_or_semi(k, false) + 1;
            }
            "use" => {
                let semi = body_or_semi(j + 1, false);
                let mut paths = Vec::new();
                use_paths(&t[j + 1..semi], &[], &mut paths);
                decls.push(Decl::Use { public, paths });
                i = semi + 1;
            }
            "impl" => {
                let b = body_or_semi(j + 1, true);
                let head = &t[skip_generics(t, j + 1)..b];
                let is_trait_impl = head.iter().any(|w| w == "for");
                if !is_trait_impl {
                    let self_ty = head.iter().take_while(|w| *w != "<").last();
                    let members = parse(&t[b + 1..close(t, b) - 1]).into_iter();
                    let members = members.filter_map(|d| match d {
                        Decl::Item {
                            public: true,
                            kind,
                            name,
                            ..
                        } => Some(format!("::{name} {kind}")),
                        _ => None,
                    });
                    decls.push(Decl::Impl {
                        self_ty: self_ty.expect("impl names a type").clone(),
                        members: members.collect(),
                    });
                }
                i = close(t, b);
            }
            // `macro_rules! m { .. }` and item-position macro calls.
            _ if t.get(j + 1).map(String::as_str) == Some("!") => {
                let k = j + 2 + usize::from(t[j + 2] != "(" && t[j + 2] != "{");
                i = close(t, k);
                i += usize::from(t.get(i).map(String::as_str) == Some(";"));
            }
            other => panic!(
                "unrecognised item `{other}` near `{}`",
                t[i..j + 2].join(" ")
            ),
        }
    }
    decls
}

/// One library crate: every module's declarations by path, and every
/// inherent impl's members by the simple name of its self type.
struct Crate {
    name: String,
    modules: BTreeMap<Vec<String>, Vec<Decl>>,
    impls: BTreeMap<String, Vec<String>>,
}

/// The text of `file` up to its first column-0 `#[cfg(test)]`.
fn non_test_source(file: &Path) -> String {
    let text = fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    let cut = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
    cut.collect::<Vec<_>>().join("\n")
}

impl Crate {
    fn load(dir: &Path) -> Crate {
        let name = format!("armdse_{}", dir.file_name().unwrap().to_string_lossy());
        let mut krate = Crate {
            name,
            modules: BTreeMap::new(),
            impls: BTreeMap::new(),
        };
        let decls = parse(&tokenize(&non_test_source(&dir.join("src/lib.rs"))));
        krate.add(Vec::new(), decls, &dir.join("src"));
        krate
    }

    /// Register module `path` (child files under `dir`) and its children.
    fn add(&mut self, path: Vec<String>, mut decls: Vec<Decl>, dir: &Path) {
        for decl in &mut decls {
            match decl {
                Decl::Mod { name, body, .. } => {
                    let mut child = path.clone();
                    child.push(name.clone());
                    let child_dir = dir.join(&*name);
                    let inner = body.take().unwrap_or_else(|| {
                        let flat = dir.join(format!("{name}.rs"));
                        let file = if flat.exists() {
                            flat
                        } else {
                            child_dir.join("mod.rs")
                        };
                        parse(&tokenize(&non_test_source(&file)))
                    });
                    self.add(child, inner, &child_dir);
                }
                Decl::Impl { self_ty, members } => {
                    let entry = self.impls.entry(self_ty.clone()).or_default();
                    entry.append(members);
                }
                _ => {}
            }
        }
        self.modules.insert(path, decls);
    }

    /// Every public name reachable from the crate root.
    fn surface(&self, out: &mut BTreeSet<String>) {
        self.list(&[], &self.name, out, 0);
    }

    fn list(&self, module: &[String], shown: &str, out: &mut BTreeSet<String>, depth: usize) {
        assert!(depth < 16, "re-export cycle at {shown}");
        for decl in &self.modules[module] {
            match decl {
                Decl::Item { public: true, .. } | Decl::Mod { public: true, .. } => {
                    self.emit(decl, module, shown, None, out, depth);
                }
                Decl::Use {
                    public: true,
                    paths,
                } => {
                    for (path, alias) in paths {
                        let found = self.resolve(module, path, 0);
                        if found.is_empty() {
                            out.insert(format!("{shown}::{alias} use"));
                        }
                        for (home, target) in found {
                            self.emit(target, &home, shown, Some(alias), out, depth);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// List `decl` (declared in module `home`) under `shown`, named
    /// `alias` when re-exported.
    fn emit(
        &self,
        decl: &Decl,
        home: &[String],
        shown: &str,
        alias: Option<&String>,
        out: &mut BTreeSet<String>,
        depth: usize,
    ) {
        match decl {
            Decl::Item {
                kind,
                name,
                members,
                ..
            } => {
                let at = format!("{shown}::{}", alias.unwrap_or(name));
                out.insert(format!("{at} {kind}"));
                let has_impls = matches!(*kind, "struct" | "enum" | "union" | "type");
                let methods = self.impls.get(name).filter(|_| has_impls);
                for m in members.iter().chain(methods.into_iter().flatten()) {
                    out.insert(format!("{at}{m}"));
                }
            }
            Decl::Mod { name, .. } => {
                let at = format!("{shown}::{}", alias.unwrap_or(name));
                out.insert(format!("{at} mod"));
                let mut child = home.to_vec();
                child.push(name.clone());
                self.list(&child, &at, out, depth + 1);
            }
            _ => unreachable!("only items and modules are emitted"),
        }
    }

    /// The declarations a `use` path names, each with its home module;
    /// empty when the path leaves the crate.
    fn resolve<'a>(
        &'a self,
        from: &[String],
        path: &[String],
        hops: usize,
    ) -> Vec<(Vec<String>, &'a Decl)> {
        assert!(hops < 16, "use cycle at {path:?}");
        let mut module = from.to_vec();
        let mut segs = path;
        match segs[0].as_str() {
            "crate" => {
                module.clear();
                segs = &segs[1..];
            }
            "self" => segs = &segs[1..],
            _ => {}
        }
        while segs[0] == "super" {
            module.pop();
            segs = &segs[1..];
        }
        for seg in &segs[..segs.len() - 1] {
            let mut child = module.clone();
            child.push(seg.clone());
            if !self.modules.contains_key(&child) {
                return Vec::new(); // another crate (or std)
            }
            module = child;
        }
        let last = segs.last().expect("non-empty use path");
        let mut found = Vec::new();
        for decl in &self.modules[&module] {
            match decl {
                Decl::Item { name, .. } | Decl::Mod { name, .. } if name == last => {
                    found.push((module.clone(), decl));
                }
                Decl::Use { paths, .. } => {
                    for (p, _) in paths.iter().filter(|(_, alias)| alias == last) {
                        found.extend(self.resolve(&module, p, hops + 1));
                    }
                }
                _ => {}
            }
        }
        found
    }
}

#[test]
fn public_api_matches_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|p| p.join("src/lib.rs").exists())
        .collect();
    dirs.sort();
    assert_eq!(dirs.len(), 10, "library crates: {dirs:?}");
    let mut surface = BTreeSet::new();
    for dir in &dirs {
        Crate::load(dir).surface(&mut surface);
    }
    // An extraction bug must not pass vacuously.
    assert!(surface.len() >= 500, "only {} public names", surface.len());

    let listing: String = surface.iter().map(|l| format!("{l}\n")).collect();
    let golden_path = root.join("tests/golden/public_api.txt");
    let golden = fs::read_to_string(&golden_path).unwrap_or_default();
    if listing == golden {
        return;
    }
    let old: BTreeSet<&str> = golden.lines().collect();
    let new: BTreeSet<&str> = listing.lines().collect();
    let mut diff = String::new();
    for l in old.difference(&new) {
        diff += &format!("- {l}\n");
    }
    for l in new.difference(&old) {
        diff += &format!("+ {l}\n");
    }
    let fresh = root.join("target/public_api.txt");
    fs::create_dir_all(fresh.parent().unwrap()).expect("target/ is writable");
    fs::write(&fresh, &listing).expect("target/public_api.txt is writable");
    panic!(
        "the public surface changed ({} -> {} lines):\n{diff}review it, then\n  \
         cp target/public_api.txt tests/golden/public_api.txt",
        old.len(),
        new.len()
    );
}
