//! Negative: methods outside the metric-registering set may take derived
//! names — `HistoryRecord::set` and `SeriesStore::push` legitimately fan a
//! snapshot out into per-series keys.

pub struct Record;

impl Record {
    pub fn set(&mut self, _key: String, _v: f64) {}
    pub fn push(&mut self, _key: &str, _v: f64) {}
}

pub fn export(r: &mut Record, job: u32, v: f64) {
    r.set(format!("job{job}/loss"), v);
    r.push(&format!("job{job}/lr"), v);
}
