//! CSV output — the paper distributes its raw results as text files
//! parsed by plotting scripts; the harness writes the same shape.

/// A CSV writer over an in-memory string (callers persist it).
#[derive(Debug, Default, Clone)]
pub struct CsvWriter {
    out: String,
    columns: usize,
}

impl CsvWriter {
    /// Start a CSV with a header row.
    pub fn new(header: &[&str]) -> Self {
        let mut w = CsvWriter {
            out: String::new(),
            columns: header.len(),
        };
        w.raw_row(header.iter().map(|s| s.to_string()).collect());
        w
    }

    /// Append a row of cells (stringified; quoted when needed).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.columns, "row width must match the header");
        self.raw_row(cells.to_vec());
        self
    }

    fn raw_row(&mut self, cells: Vec<String>) {
        let escaped: Vec<String> = cells.iter().map(|c| escape(c)).collect();
        self.out.push_str(&escaped.join(","));
        self.out.push('\n');
    }

    /// The CSV text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Quote a cell if it contains a comma, quote or newline.
fn escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Parse a simple CSV (quoted cells supported) — used by tests and by
/// examples that read results back.
pub fn parse(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let mut cells = Vec::new();
        let mut current = String::new();
        let mut in_quotes = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if in_quotes && chars.peek() == Some(&'"') => {
                    current.push('"');
                    chars.next();
                }
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => cells.push(std::mem::take(&mut current)),
                other => current.push(other),
            }
        }
        cells.push(current);
        rows.push(cells);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_round_trip() {
        let mut w = CsvWriter::new(&["chip", "impl", "gflops"]);
        w.row(&["M1".into(), "GPU-MPS".into(), "1360".into()]);
        w.row(&["M2".into(), "has,comma".into(), "2240".into()]);
        let text = w.finish();
        let rows = parse(&text);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec!["chip", "impl", "gflops"]);
        assert_eq!(rows[2][1], "has,comma");
    }

    #[test]
    fn quotes_are_escaped() {
        let mut w = CsvWriter::new(&["a"]);
        w.row(&["say \"hi\"".into()]);
        let text = w.finish();
        assert!(text.contains("\"say \"\"hi\"\"\""));
        let rows = parse(&text);
        assert_eq!(rows[1][0], "say \"hi\"");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row(&["only one".into()]);
    }
}
