//! The public surface, pinned: every `pub` declaration under
//! `crates/*/src` and the facade's `src/lib.rs`, rendered as sorted
//! `crate kind name` lines, must equal the committed `API.txt`.
//!
//! `unreachable_pub` (a workspace lint, denied in CI) makes `pub` mean
//! "another crate can name this", so the render is the exported API and any
//! growth or shrinkage of it shows up as a reviewed diff of `API.txt`.

use std::fs;
use std::path::{Path, PathBuf};

const KINDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use",
];

/// The repository root (this test crate lives in `tests/`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ has a parent")
        .to_path_buf()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The names a `use` tree brings into scope: the last segment of each leaf,
/// or its `as` alias.
fn use_names(tree: &str, out: &mut Vec<String>) {
    let tree = tree.trim();
    if let Some(open) = tree.find('{') {
        let inner = &tree[open + 1..tree.rfind('}').expect("balanced use braces")];
        let mut depth = 0;
        let mut start = 0;
        for (i, c) in inner.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    use_names(&inner[start..i], out);
                    start = i + 1;
                }
                _ => {}
            }
        }
        use_names(&inner[start..], out);
    } else if !tree.is_empty() {
        let leaf = tree.rsplit(" as ").next().unwrap_or(tree);
        out.push(leaf.rsplit("::").next().unwrap_or(leaf).to_string());
    }
}

/// The `crate kind name` lines of one source file.
fn render_file(krate: &str, source: &str, out: &mut Vec<String>) {
    let lines: Vec<&str> = source.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let rest = ["const ", "async ", "unsafe "]
            .iter()
            .find_map(|q| rest.strip_prefix(q).filter(|r| r.starts_with("fn ")))
            .unwrap_or(rest);
        let Some(kind) = KINDS.iter().find(|k| rest.starts_with(&format!("{k} "))) else {
            continue;
        };
        let rest = &rest[kind.len() + 1..];
        if *kind == "use" {
            let mut statement = rest.to_string();
            let mut next = i + 1;
            while !statement.contains(';') {
                statement.push_str(lines[next]);
                next += 1;
            }
            let end = statement.find(';').expect("terminated use");
            let mut names = Vec::new();
            use_names(&statement[..end], &mut names);
            out.extend(names.into_iter().map(|name| format!("{krate} use {name}")));
        } else {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            out.push(format!("{krate} {kind} {name}"));
        }
    }
}

/// The whole surface, sorted.
fn render() -> Vec<String> {
    let root = repo_root();
    let mut out = Vec::new();
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ directory")
        .map(|e| e.expect("directory entry").path())
        .collect();
    crates.sort();
    for dir in crates {
        let krate = format!("dsm-{}", dir.file_name().unwrap().to_string_lossy());
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        for file in files {
            render_file(&krate, &fs::read_to_string(&file).unwrap(), &mut out);
        }
    }
    let facade = fs::read_to_string(root.join("src/lib.rs")).expect("facade source");
    render_file("adaptive-dsm", &facade, &mut out);
    out.sort();
    out
}

/// Lines of `a` missing from `b`, counting repeats.
fn missing_from(a: &[String], b: &[String]) -> Vec<String> {
    let mut rest = b.to_vec();
    a.iter()
        .filter(|line| match rest.iter().position(|r| r == *line) {
            Some(at) => {
                rest.swap_remove(at);
                false
            }
            None => true,
        })
        .cloned()
        .collect()
}

#[test]
fn public_surface_matches_api_txt() {
    let rendered = render();
    let committed: Vec<String> = fs::read_to_string(repo_root().join("API.txt"))
        .expect("API.txt at the repository root")
        .lines()
        .map(str::to_string)
        .collect();
    if rendered != committed {
        let added = missing_from(&rendered, &committed);
        let removed = missing_from(&committed, &rendered);
        let mut report = String::from("the public surface differs from API.txt\n");
        for line in &added {
            report.push_str(&format!("+ {line}\n"));
        }
        for line in &removed {
            report.push_str(&format!("- {line}\n"));
        }
        if added.is_empty() && removed.is_empty() {
            report.push_str("(same lines, different order: API.txt must be sorted)\n");
        }
        panic!("{report}");
    }
}

#[test]
fn use_trees_render_one_line_per_name() {
    let mut out = Vec::new();
    render_file(
        "k",
        "pub use a::{B, c::D as E};\npub use f as g;\npub(crate) fn h() {}\npub const fn i() {}\n",
        &mut out,
    );
    assert_eq!(out, ["k use B", "k use E", "k use g", "k fn i"]);
}
