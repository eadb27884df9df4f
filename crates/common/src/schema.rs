//! Table schemas.
//!
//! A Pinot table has a fixed schema of typed columns; each column is either a
//! *dimension*, a *metric*, or the special *time column* used for hybrid
//! offline/realtime merging and retention (§3.1 of the paper).

use crate::error::{PinotError, Result};
use crate::value::Value;

/// Scalar column types supported by the paper's data model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Long,
    Float,
    Double,
    String,
    Boolean,
}

impl DataType {
    pub fn name(&self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Long => "LONG",
            DataType::Float => "FLOAT",
            DataType::Double => "DOUBLE",
            DataType::String => "STRING",
            DataType::Boolean => "BOOLEAN",
        }
    }

    pub fn parse(s: &str) -> Result<DataType> {
        match s {
            "INT" => Ok(DataType::Int),
            "LONG" => Ok(DataType::Long),
            "FLOAT" => Ok(DataType::Float),
            "DOUBLE" => Ok(DataType::Double),
            "STRING" => Ok(DataType::String),
            "BOOLEAN" => Ok(DataType::Boolean),
            other => Err(PinotError::Schema(format!("unknown data type {other:?}"))),
        }
    }

    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            DataType::Int | DataType::Long | DataType::Float | DataType::Double
        )
    }
}

/// Role of a column within the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldRole {
    Dimension,
    Metric,
    /// The special timestamp dimension column (at most one per schema).
    Time,
}

/// Time granularity of the time column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeUnit {
    Millis,
    Seconds,
    Minutes,
    Hours,
    Days,
}

impl TimeUnit {
    /// Milliseconds in one unit.
    pub fn millis(&self) -> i64 {
        match self {
            TimeUnit::Millis => 1,
            TimeUnit::Seconds => 1_000,
            TimeUnit::Minutes => 60_000,
            TimeUnit::Hours => 3_600_000,
            TimeUnit::Days => 86_400_000,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            TimeUnit::Millis => "MILLIS",
            TimeUnit::Seconds => "SECONDS",
            TimeUnit::Minutes => "MINUTES",
            TimeUnit::Hours => "HOURS",
            TimeUnit::Days => "DAYS",
        }
    }

    pub fn parse(s: &str) -> Result<TimeUnit> {
        match s {
            "MILLIS" => Ok(TimeUnit::Millis),
            "SECONDS" => Ok(TimeUnit::Seconds),
            "MINUTES" => Ok(TimeUnit::Minutes),
            "HOURS" => Ok(TimeUnit::Hours),
            "DAYS" => Ok(TimeUnit::Days),
            other => Err(PinotError::Schema(format!("unknown time unit {other:?}"))),
        }
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSpec {
    pub name: String,
    pub data_type: DataType,
    pub role: FieldRole,
    /// Single-value vs multi-value (array) column.
    pub single_value: bool,
    /// Granularity, only meaningful for the time column.
    pub time_unit: Option<TimeUnit>,
    /// Value used to fill nulls and back-fill newly added columns.
    pub default_value: Value,
}

impl FieldSpec {
    pub fn dimension(name: impl Into<String>, data_type: DataType) -> FieldSpec {
        let name = name.into();
        FieldSpec {
            default_value: Value::default_for(data_type, true),
            name,
            data_type,
            role: FieldRole::Dimension,
            single_value: true,
            time_unit: None,
        }
    }

    pub fn multi_value_dimension(name: impl Into<String>, data_type: DataType) -> FieldSpec {
        let name = name.into();
        FieldSpec {
            default_value: Value::default_for(data_type, false),
            name,
            data_type,
            role: FieldRole::Dimension,
            single_value: false,
            time_unit: None,
        }
    }

    pub fn metric(name: impl Into<String>, data_type: DataType) -> FieldSpec {
        let name = name.into();
        FieldSpec {
            default_value: match data_type {
                DataType::Int => Value::Int(0),
                DataType::Long => Value::Long(0),
                DataType::Float => Value::Float(0.0),
                DataType::Double => Value::Double(0.0),
                DataType::Boolean => Value::Boolean(false),
                DataType::String => Value::String(String::new()),
            },
            name,
            data_type,
            role: FieldRole::Metric,
            single_value: true,
            time_unit: None,
        }
    }

    pub fn time(name: impl Into<String>, data_type: DataType, unit: TimeUnit) -> FieldSpec {
        let name = name.into();
        FieldSpec {
            default_value: Value::default_for(data_type, true),
            name,
            data_type,
            role: FieldRole::Time,
            single_value: true,
            time_unit: Some(unit),
        }
    }

    /// Validate a cell against this spec. Nulls are allowed (they are
    /// replaced by the default at ingest).
    pub fn validate(&self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        if v.is_multi_value() && self.single_value {
            return Err(PinotError::Schema(format!(
                "column {} is single-value but got an array",
                self.name
            )));
        }
        match v.data_type() {
            Some(dt) if dt == self.data_type => Ok(()),
            // Allow widening INT -> LONG and FLOAT -> DOUBLE on ingest.
            Some(DataType::Int) if self.data_type == DataType::Long => Ok(()),
            Some(DataType::Float) if self.data_type == DataType::Double => Ok(()),
            Some(dt) => Err(PinotError::Schema(format!(
                "column {} expects {} but got {}",
                self.name,
                self.data_type.name(),
                dt.name()
            ))),
            None => Ok(()),
        }
    }
}

/// A table schema: an ordered list of uniquely named columns with at most one
/// time column.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    name: String,
    fields: Vec<FieldSpec>,
}

impl Schema {
    pub fn new(name: impl Into<String>, fields: Vec<FieldSpec>) -> Result<Schema> {
        let name = name.into();
        let mut seen = std::collections::HashSet::new();
        let mut time_cols = 0usize;
        for f in &fields {
            if !seen.insert(f.name.clone()) {
                return Err(PinotError::Schema(format!("duplicate column {}", f.name)));
            }
            if f.role == FieldRole::Time {
                time_cols += 1;
                if !f.data_type.is_numeric() {
                    return Err(PinotError::Schema(format!(
                        "time column {} must be numeric",
                        f.name
                    )));
                }
                if f.time_unit.is_none() {
                    return Err(PinotError::Schema(format!(
                        "time column {} needs a time unit",
                        f.name
                    )));
                }
            }
            if f.role == FieldRole::Metric && !f.single_value {
                return Err(PinotError::Schema(format!(
                    "metric column {} cannot be multi-value",
                    f.name
                )));
            }
        }
        if time_cols > 1 {
            return Err(PinotError::Schema("more than one time column".into()));
        }
        if fields.is_empty() {
            return Err(PinotError::Schema("schema has no columns".into()));
        }
        Ok(Schema { name, fields })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn fields(&self) -> &[FieldSpec] {
        &self.fields
    }

    pub fn num_columns(&self) -> usize {
        self.fields.len()
    }

    pub fn field(&self, name: &str) -> Option<&FieldSpec> {
        self.fields.iter().find(|f| f.name == name)
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    pub fn time_column(&self) -> Option<&FieldSpec> {
        self.fields.iter().find(|f| f.role == FieldRole::Time)
    }

    pub fn dimensions(&self) -> impl Iterator<Item = &FieldSpec> {
        self.fields
            .iter()
            .filter(|f| matches!(f.role, FieldRole::Dimension | FieldRole::Time))
    }

    pub fn metrics(&self) -> impl Iterator<Item = &FieldSpec> {
        self.fields.iter().filter(|f| f.role == FieldRole::Metric)
    }

    /// Evolve the schema by appending a new column (Pinot supports adding
    /// columns on the fly without downtime; existing segments expose the
    /// default value, §5.2). Fails on duplicates or a second time column.
    pub fn with_added_column(&self, field: FieldSpec) -> Result<Schema> {
        let mut fields = self.fields.clone();
        fields.push(field);
        Schema::new(self.name.clone(), fields)
    }

    /// JSON rendering for metastore storage.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj(vec![
            ("name", self.name.as_str().into()),
            (
                "fields",
                Json::Arr(
                    self.fields
                        .iter()
                        .map(|f| {
                            let mut pairs: Vec<(&str, Json)> = vec![
                                ("name", f.name.as_str().into()),
                                ("type", f.data_type.name().into()),
                                (
                                    "role",
                                    match f.role {
                                        FieldRole::Dimension => "DIMENSION",
                                        FieldRole::Metric => "METRIC",
                                        FieldRole::Time => "TIME",
                                    }
                                    .into(),
                                ),
                                ("singleValue", f.single_value.into()),
                            ];
                            if let Some(u) = f.time_unit {
                                pairs.push(("timeUnit", u.name().into()));
                            }
                            Json::obj(pairs)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse the JSON produced by [`Schema::to_json`]. Default values are
    /// re-derived from the field type and role.
    pub fn from_json(j: &crate::json::Json) -> Result<Schema> {
        use crate::json::Json;
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| PinotError::Schema("schema JSON missing name".into()))?;
        let fields_json = j
            .get("fields")
            .and_then(Json::as_arr)
            .ok_or_else(|| PinotError::Schema("schema JSON missing fields".into()))?;
        let mut fields = Vec::with_capacity(fields_json.len());
        for fj in fields_json {
            let fname = fj
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| PinotError::Schema("field missing name".into()))?;
            let dt = DataType::parse(
                fj.get("type")
                    .and_then(Json::as_str)
                    .ok_or_else(|| PinotError::Schema("field missing type".into()))?,
            )?;
            let single_value = fj
                .get("singleValue")
                .and_then(Json::as_bool)
                .unwrap_or(true);
            let role = fj.get("role").and_then(Json::as_str).unwrap_or("DIMENSION");
            let spec = match role {
                "METRIC" => FieldSpec::metric(fname, dt),
                "TIME" => {
                    let unit =
                        TimeUnit::parse(fj.get("timeUnit").and_then(Json::as_str).ok_or_else(
                            || PinotError::Schema("time field missing unit".into()),
                        )?)?;
                    FieldSpec::time(fname, dt, unit)
                }
                _ if single_value => FieldSpec::dimension(fname, dt),
                _ => FieldSpec::multi_value_dimension(fname, dt),
            };
            fields.push(spec);
        }
        Schema::new(name, fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(
            "events",
            vec![
                FieldSpec::dimension("country", DataType::String),
                FieldSpec::dimension("browser", DataType::String),
                FieldSpec::metric("impressions", DataType::Long),
                FieldSpec::time("day", DataType::Long, TimeUnit::Days),
            ],
        )
        .unwrap()
    }

    #[test]
    fn lookup_and_roles() {
        let s = sample();
        assert_eq!(s.num_columns(), 4);
        assert_eq!(s.column_index("browser"), Some(1));
        assert_eq!(s.time_column().unwrap().name, "day");
        assert_eq!(s.dimensions().count(), 3); // includes time column
        assert_eq!(s.metrics().count(), 1);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(
            "t",
            vec![
                FieldSpec::dimension("a", DataType::Int),
                FieldSpec::dimension("a", DataType::Long),
            ],
        )
        .unwrap_err();
        assert_eq!(err.kind(), "schema");
    }

    #[test]
    fn two_time_columns_rejected() {
        let err = Schema::new(
            "t",
            vec![
                FieldSpec::time("t1", DataType::Long, TimeUnit::Days),
                FieldSpec::time("t2", DataType::Long, TimeUnit::Days),
            ],
        )
        .unwrap_err();
        assert_eq!(err.kind(), "schema");
    }

    #[test]
    fn non_numeric_time_rejected() {
        assert!(Schema::new(
            "t",
            vec![FieldSpec::time("ts", DataType::String, TimeUnit::Days)]
        )
        .is_err());
    }

    #[test]
    fn multivalue_metric_rejected() {
        let mut f = FieldSpec::metric("m", DataType::Long);
        f.single_value = false;
        assert!(Schema::new("t", vec![f]).is_err());
    }

    #[test]
    fn validate_cells() {
        let s = sample();
        let country = s.field("country").unwrap();
        assert!(country.validate(&Value::String("us".into())).is_ok());
        assert!(country.validate(&Value::Int(3)).is_err());
        assert!(country.validate(&Value::Null).is_ok());
        let imps = s.field("impressions").unwrap();
        assert!(imps.validate(&Value::Int(5)).is_ok()); // widening
        assert!(imps.validate(&Value::Double(5.0)).is_err());
    }

    #[test]
    fn schema_evolution_adds_column() {
        let s = sample();
        let s2 = s
            .with_added_column(FieldSpec::dimension("region", DataType::String))
            .unwrap();
        assert_eq!(s2.num_columns(), 5);
        assert!(s2
            .with_added_column(FieldSpec::dimension("region", DataType::String))
            .is_err());
    }

    #[test]
    fn data_type_parse_round_trip() {
        for dt in [
            DataType::Int,
            DataType::Long,
            DataType::Float,
            DataType::Double,
            DataType::String,
            DataType::Boolean,
        ] {
            assert_eq!(DataType::parse(dt.name()).unwrap(), dt);
        }
        assert!(DataType::parse("BLOB").is_err());
    }

    #[test]
    fn schema_json_round_trip() {
        let s = Schema::new(
            "events",
            vec![
                FieldSpec::dimension("country", DataType::String),
                FieldSpec::multi_value_dimension("tags", DataType::String),
                FieldSpec::metric("impressions", DataType::Long),
                FieldSpec::time("day", DataType::Long, TimeUnit::Days),
            ],
        )
        .unwrap();
        let back = Schema::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // And through text.
        let text = s.to_json().emit();
        let back2 = Schema::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back2, s);
    }

    #[test]
    fn schema_from_json_rejects_garbage() {
        use crate::json::Json;
        assert!(Schema::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(Schema::from_json(
            &Json::parse(r#"{"name":"t","fields":[{"name":"a"}]}"#).unwrap()
        )
        .is_err());
    }

    #[test]
    fn time_unit_millis() {
        assert_eq!(TimeUnit::Days.millis(), 86_400_000);
        assert_eq!(TimeUnit::Seconds.millis(), 1_000);
        assert_eq!(TimeUnit::parse("HOURS").unwrap(), TimeUnit::Hours);
    }
}
